// Package drive is the benchmark's only door into the simulator: every
// import of darpanet/internal/... lives here, and the workloads, probes
// and tracing in package main talk to this package alone. When the
// experiment surface is reshaped (one Internet handle, exp.Params, the
// Pair helpers deleted) the benchmark follows by editing this package.
//
// Fixtures expose their build steps one by one (generate, install
// routes, install qdisc, arm, run) so the caller can put a span around
// each call into a layer; nothing in here reads the wall clock except
// the probes' own fixtures, which the caller times from outside.
package drive

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"strings"

	"darpanet/internal/metrics"
	"darpanet/internal/sim"
)

// Counts holds registry descriptors summed over nodes, keyed by
// "layer/name" ("nic/tx_frames", "ip/forwarded", ...).
type Counts map[string]uint64

// layerKey reduces a descriptor path to its last two segments, folding
// uniquified duplicates ("...~2") into the base name. It works on
// registry paths ("g1/ip/forwarded") and on the campaign mirror
// ("ctr/gauntlet/g1/ip/forwarded", "ctr/collapse/nic/tx_frames") alike.
func layerKey(path string) string {
	if i := strings.LastIndexByte(path, '~'); i >= 0 && !strings.Contains(path[i:], "/") {
		path = path[:i]
	}
	j := strings.LastIndexByte(path, '/')
	if j < 0 {
		return path
	}
	if i := strings.LastIndexByte(path[:j], '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Add accumulates other into c.
func (c Counts) Add(other Counts) {
	for k, v := range other {
		c[k] += v
	}
}

// Sub returns c − prev per key. Gauges that fell (queue depths) wrap to
// zero rather than to 2^64.
func (c Counts) Sub(prev Counts) Counts {
	out := make(Counts, len(c))
	for k, v := range c {
		if p := prev[k]; v >= p {
			out[k] = v - p
		} else {
			out[k] = 0
		}
	}
	return out
}

// Frames is the benchmark's unit of simulated work: link frames put on
// a wire.
func (c Counts) Frames() uint64 { return c["nic/tx_frames"] }

// LedgerDelta is E16's frame-conservation ledger over absolute (not
// delta) counts: every frame a NIC transmitted, or a bus copied, must
// be received, counted lost under exactly one reason, or still be in a
// queue or in flight. Zero when the books close.
func (c Counts) LedgerDelta() int64 {
	lhs := c["nic/tx_frames"] + c["medium/bcast_copies"]
	rhs := c["nic/rx_frames"] + c["nic/rx_lost"] + c["nic/rx_down"] + c["nic/rx_no_recv"] +
		c["medium/queue_drops"] + c["medium/lost_down"] + c["medium/no_match"] +
		c["medium/bcast_fanout"] + c["medium/queued"] + c["medium/in_flight"]
	return int64(lhs) - int64(rhs)
}

// Reading is one pass over the registries of a set of kernels: the
// full per-node snapshots (for the digest) and their per-layer sums.
// Taking it is the benchmark's own cost, so callers keep it outside the
// timed window.
type Reading struct {
	Counts Counts
	snaps  []metrics.Snapshot
}

// read snapshots every kernel once.
func read(ks ...*sim.Kernel) Reading {
	r := Reading{Counts: make(Counts), snaps: make([]metrics.Snapshot, len(ks))}
	for i, k := range ks {
		r.snaps[i] = metrics.For(k).Snapshot()
		for _, e := range r.snaps[i] {
			r.Counts[layerKey(e.Path)] += e.Value
		}
	}
	return r
}

// Digest hashes a simulated outcome. Workloads feed it counts and
// result fields; two runs of the same inputs must produce the same hex
// string, whatever the host did meanwhile.
type Digest struct{ h hash.Hash }

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Counts folds c in, sorted by key.
func (d *Digest) Counts(c Counts) {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d.String(k)
		d.Uint(c[k])
	}
}

// Reading folds in every descriptor of every kernel, node by node.
func (d *Digest) Reading(r Reading) {
	for _, s := range r.snaps {
		for _, e := range s {
			d.String(e.Path)
			d.Uint(e.Value)
		}
	}
}

// Uint folds one integer in.
func (d *Digest) Uint(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

// String folds a length-prefixed string in.
func (d *Digest) String(s string) {
	d.Uint(uint64(len(s)))
	d.h.Write([]byte(s))
}

// Bytes folds a length-prefixed byte string in.
func (d *Digest) Bytes(b []byte) {
	d.Uint(uint64(len(b)))
	d.h.Write(b)
}

// Hex returns the first 16 hex digits of the hash — short enough to
// print in a table, long enough that a collision is not a concern.
func (d *Digest) Hex() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
