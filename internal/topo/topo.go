// Package topo generates internets at scale.
//
// Every topology elsewhere in this repo is a hand-wired lab of a few
// nodes; the paper's goals — surviving "varieties of networks" under
// distributed management — only bite when the graph is big enough that
// no one wires it by hand. This package builds seeded, deterministic
// internets of hundreds of gateways in five classical shapes (line,
// ring, tree, transit-stub, Waxman) with a per-net mix of MTU, rate,
// latency and loss, and emits both a live *core.Network and a
// machine-readable Manifest describing exactly what was built.
//
// Generation is a pure function of (Spec, seed): the generator draws
// from its own rand.Rand, never the kernel's, so the emitted graph is
// identical no matter what the simulation does afterwards.
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/phys"
	"darpanet/internal/spec"
)

// Shape selects the gateway graph the generator wires.
type Shape string

const (
	// Line chains gateways g0–g1–…–gN over point-to-point trunks.
	Line Shape = "line"
	// Ring closes the line into a cycle.
	Ring Shape = "ring"
	// Tree builds a complete Degree-ary tree of gateways.
	Tree Shape = "tree"
	// TransitStub builds a chorded ring of transit gateways, each
	// serving StubsPer stub gateways that own the host LANs — the
	// classical internet shape (Zegura et al.).
	TransitStub Shape = "transitstub"
	// Waxman samples gateway positions in the unit square and links
	// pairs with probability Alpha·exp(−d/(Beta·L)), then bridges any
	// disconnected components.
	Waxman Shape = "waxman"
)

// Spec parameterizes a generated internet. The zero value is not
// useful; start from DefaultSpec or ParseSpec.
type Spec struct {
	Shape Shape
	// Gateways is the backbone gateway count (for TransitStub, the
	// transit-ring size; total gateways are Gateways·(1+StubsPer)).
	Gateways int
	// Degree is the tree fanout (Tree only).
	Degree int
	// StubsPer is the number of stub gateways per transit gateway
	// (TransitStub only).
	StubsPer int
	// Hosts is the host count on each stub LAN.
	Hosts int
	// Alpha and Beta are the Waxman edge-probability parameters.
	Alpha, Beta float64
	// Mix varies per-net media profiles (MTU, rate, delay, loss);
	// when false every trunk and every stub uses one fixed profile.
	Mix bool
	// Directories is how many gateways host a directory replica
	// (internal/names); the placement is recorded in the manifest.
	// Zero generates no directory placement.
	Directories int
}

// DefaultSpec is the E12 reference internet: a 25-transit ring with 7
// stub gateways each — 200 gateways, 175 host LANs, 380 networks.
func DefaultSpec() Spec {
	return Spec{Shape: TransitStub, Gateways: 25, StubsPer: 7, Hosts: 1, Mix: true}
}

// Fields is the spec's key=val grammar, in rendering order; a key is
// rendered only for the shapes it means something to.
func (s *Spec) Fields() spec.Fields {
	return spec.Fields{
		spec.Int("gw", &s.Gateways),
		spec.Int("degree", &s.Degree).When(s.Shape == Tree),
		spec.Int("stubs", &s.StubsPer).When(s.Shape == TransitStub),
		spec.Float("alpha", &s.Alpha).When(s.Shape == Waxman),
		spec.Float("beta", &s.Beta).When(s.Shape == Waxman),
		spec.Int("hosts", &s.Hosts),
		spec.Bool("mix", &s.Mix),
		spec.Int("dirs", &s.Directories).When(s.Directories > 0),
	}
}

// String renders the spec in the form ParseSpec accepts.
func (s Spec) String() string { return string(s.Shape) + ":" + s.Fields().String() }

// HostCount is how many hosts the spec generates: Hosts on each stub
// LAN, of which there is one per stub gateway (TransitStub) or per
// gateway (every other shape).
func (s Spec) HostCount() int {
	stubs := s.Gateways
	if s.Shape == TransitStub {
		stubs *= s.StubsPer
	}
	return stubs * s.Hosts
}

// shapes is every shape, as the spec its omitted keys default to.
var shapes = []Spec{
	{Shape: Line, Gateways: 16, Hosts: 1, Mix: true},
	{Shape: Ring, Gateways: 16, Hosts: 1, Mix: true},
	{Shape: Tree, Gateways: 31, Degree: 2, Hosts: 1, Mix: true},
	DefaultSpec(),
	{Shape: Waxman, Gateways: 32, Alpha: 0.25, Beta: 0.4, Hosts: 1, Mix: true},
}

// ShapeNames lists the shapes ParseSpec accepts.
func ShapeNames() []string {
	names := make([]string, len(shapes))
	for i, sp := range shapes {
		names[i] = string(sp.Shape)
	}
	return names
}

// ParseSpec parses "shape:key=val,key=val,…" with the keys of
// Spec.Fields. Omitted keys take the shape's defaults; "shape" alone is
// valid.
func ParseSpec(s string) (Spec, error) {
	name, rest, _ := strings.Cut(s, ":")
	i := slices.IndexFunc(shapes, func(sp Spec) bool { return string(sp.Shape) == name })
	if i < 0 {
		return Spec{}, fmt.Errorf("topo: unknown shape %q (want one of %s)", name, strings.Join(ShapeNames(), ", "))
	}
	sp := shapes[i]
	if err := sp.Fields().Parse(rest); err != nil {
		return Spec{}, fmt.Errorf("topo: %w", err)
	}
	return sp, sp.validate()
}

// The address plan's limits: builder.prefix cuts 10/8 into maxNets /24s
// (10.1.0.0 to 10.255.249.0), and a /24 stub LAN holds its gateway plus
// maxHosts hosts below the directed-broadcast address.
const (
	maxNets  = 255 * 250
	maxHosts = 253
)

func (s Spec) validate() error {
	switch {
	case s.Gateways < 1:
		return fmt.Errorf("topo: gw=%d, want >= 1", s.Gateways)
	case s.Hosts < 0 || s.Hosts > maxHosts:
		return fmt.Errorf("topo: hosts=%d, want 0..%d (a /24 stub LAN)", s.Hosts, maxHosts)
	case s.Shape == Tree && s.Degree < 1:
		return fmt.Errorf("topo: degree=%d, want >= 1", s.Degree)
	case s.Shape == TransitStub && s.StubsPer < 1:
		return fmt.Errorf("topo: stubs=%d, want >= 1", s.StubsPer)
	case s.Shape == Waxman && (s.Alpha <= 0 || s.Beta <= 0):
		return fmt.Errorf("topo: waxman needs alpha,beta > 0")
	case s.Directories < 0:
		return fmt.Errorf("topo: dirs=%d, want >= 0", s.Directories)
	case s.minNets() > maxNets:
		return errTooManyNets(s.String())
	}
	return nil
}

func errTooManyNets(spec string) error {
	return fmt.Errorf("topo: %s needs more than the %d /24 networks the address plan holds", spec, maxNets)
}

// minNets is how many networks the spec generates. It is exact except
// for Waxman, whose edge count is only known while generating — there it
// counts the spanning tree every connected graph has — and past the
// plan's size, where the inputs are clamped so the products cannot
// overflow.
func (s Spec) minNets() int64 {
	g, stubs := min(int64(s.Gateways), maxNets+1), min(int64(s.StubsPer), maxNets+1)
	switch {
	case s.Shape == Ring && g > 2:
		return 2 * g // a stub and a trunk per gateway
	case s.Shape == TransitStub:
		chords := int64(0)
		if g >= 6 {
			chords = g / 5
		}
		return g + chords + 2*g*stubs // ring, chords, an access trunk and a stub per stub gateway
	}
	return 2*g - 1 // a stub per gateway, and a tree of trunks
}

// NetDef records one generated network in the manifest: its prefix,
// medium kind and the full phys.Config the generator chose.
type NetDef struct {
	Name       string  `json:"name"`
	Prefix     string  `json:"prefix"`
	Kind       string  `json:"kind"` // "lan", "p2p", "radio"
	MTU        int     `json:"mtu"`
	BitsPerSec int64   `json:"bits_per_sec"`
	DelayUS    int64   `json:"delay_us"`
	Loss       float64 `json:"loss,omitempty"`
	QueueLimit int     `json:"queue_limit,omitempty"`
	JitterUS   int64   `json:"jitter_us,omitempty"`
}

// NodeDef records one generated node and its attachments, in wiring
// order.
type NodeDef struct {
	Name       string   `json:"name"`
	Forwarding bool     `json:"forwarding"`
	Nets       []string `json:"nets"`
}

// Manifest is the machine-readable description of a generated internet
// — enough to reason about the graph (reachability, hop counts)
// without touching the live Network.
type Manifest struct {
	Schema   string    `json:"schema"`
	Spec     string    `json:"spec"`
	Seed     int64     `json:"seed"`
	Gateways int       `json:"gateways"`
	Hosts    int       `json:"hosts"`
	Nets     int       `json:"nets"`
	Trunks   int       `json:"trunks"`
	Stubs    int       `json:"stubs"`
	NetDefs  []NetDef  `json:"net_defs"`
	NodeDefs []NodeDef `json:"node_defs"`
	// Directories names the gateways placed to host directory
	// replicas (internal/names); empty unless Spec.Directories > 0.
	Directories []string `json:"directories,omitempty"`
	// Partition records the region assignment a sharded build used;
	// nil for serially built internets.
	Partition *PartitionDef `json:"partition,omitempty"`
}

// ManifestSchema identifies the manifest JSON layout.
const ManifestSchema = "darpanet/topo/v1"

// GatewayNames returns the forwarding nodes in wiring order — the set
// to hand core.Network.EnableRIP.
func (m *Manifest) GatewayNames() []string {
	var out []string
	for _, nd := range m.NodeDefs {
		if nd.Forwarding {
			out = append(out, nd.Name)
		}
	}
	return out
}

// HostNames returns the non-forwarding nodes in wiring order.
func (m *Manifest) HostNames() []string {
	var out []string
	for _, nd := range m.NodeDefs {
		if !nd.Forwarding {
			out = append(out, nd.Name)
		}
	}
	return out
}

// NetHops computes, for every network reachable from the named node,
// the minimum number of gateways a datagram crosses to enter it (0 for
// directly attached nets). This is the BFS oracle the property tests
// compare routing state against: the static oracle's route metric
// equals NetHops exactly, and a converged distance-vector metric
// equals NetHops+1 (direct routes advertise metric 1). Unreachable
// nets are absent from the map.
func (m *Manifest) NetHops(from string) map[string]int {
	nodeNets := make(map[string][]string, len(m.NodeDefs))
	netNodes := make(map[string][]string, len(m.NetDefs))
	forwarding := make(map[string]bool, len(m.NodeDefs))
	for _, nd := range m.NodeDefs {
		nodeNets[nd.Name] = nd.Nets
		forwarding[nd.Name] = nd.Forwarding
		for _, n := range nd.Nets {
			netNodes[n] = append(netNodes[n], nd.Name)
		}
	}
	dist := make(map[string]int)     // net -> gateway hops
	nodeDist := make(map[string]int) // node -> hops spent reaching it
	queue := make([]string, 0, len(m.NodeDefs))
	nodeDist[from] = 0
	queue = append(queue, from)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		d := nodeDist[v]
		if v != from && !forwarding[v] {
			continue // datagrams do not transit hosts
		}
		for _, n := range nodeNets[v] {
			nd := d
			if v != from {
				nd = d + 1 // crossing gateway v
			}
			if cur, ok := dist[n]; ok && cur <= nd {
				continue
			}
			dist[n] = nd
			for _, w := range netNodes[n] {
				if _, seen := nodeDist[w]; !seen {
					nodeDist[w] = nd
					queue = append(queue, w)
				}
			}
		}
	}
	return dist
}

// Media profiles. Index 0 is the fixed profile used when Spec.Mix is
// false; with Mix the generator draws uniformly. Trunk rates stay at
// T1 or better so periodic routing traffic cannot saturate a link.
var trunkProfiles = []struct {
	cfg phys.Config
}{
	{phys.Config{BitsPerSec: 1_544_000, Delay: 3 * time.Millisecond, MTU: 1500, QueueLimit: 64}},
	{phys.Config{BitsPerSec: 45_000_000, Delay: 2 * time.Millisecond, MTU: 1500, QueueLimit: 64}},
	{phys.Config{BitsPerSec: 6_312_000, Delay: 8 * time.Millisecond, MTU: 1006, QueueLimit: 64}},
}

var stubProfiles = []struct {
	kind core.NetKind
	cfg  phys.Config
}{
	{core.LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500}},
	{core.LAN, phys.Config{BitsPerSec: 4_000_000, Delay: 2 * time.Millisecond, MTU: 1006}},
	{core.Radio, phys.Config{BitsPerSec: 2_000_000, Delay: 5 * time.Millisecond, MTU: 576, Loss: 0.001, Jitter: time.Millisecond}},
}

var kindNames = map[core.NetKind]string{core.LAN: "lan", core.P2P: "p2p", core.Radio: "radio"}

// lab is where the builder wires what it draws: a node goes to its
// region, a net to the region of its stations, and a cross trunk becomes
// a boundary pair between the regions of its ends — with no partition,
// all to the one region (Generate). A nil lab keeps only the manifest
// (a throwaway serial network would double a sharded build's cost).
type lab struct {
	regions    []*core.Network
	nodeRegion map[string]int
	netRegion  map[string]int   // by net name; -1 marks a cross trunk
	ends       map[string][]int // cross trunk -> the regions of its two ends
}

// Net returns the network the named node is, or is to be, wired into.
func (l *lab) Net(node string) *core.Network { return l.regions[l.nodeRegion[node]] }

func (l *lab) AddNet(name, prefix string, kind core.NetKind, cfg phys.Config) {
	if r := l.netRegion[name]; r >= 0 {
		l.regions[r].AddNet(name, prefix, kind, cfg)
		return
	}
	e := l.ends[name]
	core.AddCrossTrunk(l.regions[e[0]], l.regions[e[1]], name, prefix, cfg)
}

// builder accumulates the Network and Manifest in lockstep.
type builder struct {
	nw      *lab
	m       *Manifest
	rng     *rand.Rand
	mix     bool
	netIdx  int
	trunkID int
	stubID  int
	// nodeAt maps a node name to its NodeDefs index: link() runs once
	// per trunk end, and a linear scan there made wiring a 2000-gateway
	// internet quadratic.
	nodeAt map[string]int
}

// prefix allocates the next /24 from 10/8.
func (b *builder) prefix() string {
	i := b.netIdx
	if i >= maxNets {
		panic(errTooManyNets(b.m.Spec))
	}
	b.netIdx++
	return fmt.Sprintf("10.%d.%d.0/24", 1+i/250, i%250)
}

// addNet creates a net and records it in the manifest.
func (b *builder) addNet(name, prefix string, kind core.NetKind, cfg phys.Config) {
	if b.nw != nil {
		b.nw.AddNet(name, prefix, kind, cfg)
	}
	b.m.NetDefs = append(b.m.NetDefs, NetDef{
		Name: name, Prefix: prefix, Kind: kindNames[kind],
		MTU: cfg.MTU, BitsPerSec: cfg.BitsPerSec,
		DelayUS: int64(cfg.Delay / time.Microsecond), Loss: cfg.Loss,
		QueueLimit: cfg.QueueLimit, JitterUS: int64(cfg.Jitter / time.Microsecond),
	})
}

// addTrunk creates a point-to-point trunk net and returns its name.
func (b *builder) addTrunk() string {
	p := 0
	if b.mix {
		p = b.rng.Intn(len(trunkProfiles))
	}
	cfg := trunkProfiles[p].cfg
	name := fmt.Sprintf("t%d", b.trunkID)
	b.trunkID++
	b.addNet(name, b.prefix(), core.P2P, cfg)
	b.m.Trunks++
	return name
}

// addStub creates a host-bearing stub net and returns its name.
func (b *builder) addStub() string {
	p := 0
	if b.mix {
		p = b.rng.Intn(len(stubProfiles))
	}
	pr := stubProfiles[p]
	name := fmt.Sprintf("s%d", b.stubID)
	b.stubID++
	b.addNet(name, b.prefix(), pr.kind, pr.cfg)
	b.m.Stubs++
	return name
}

// addGateway creates a forwarding node attached to the given nets.
func (b *builder) addGateway(name string, nets ...string) {
	if b.nw != nil {
		b.nw.Net(name).AddGateway(name, nets...)
	}
	b.nodeAt[name] = len(b.m.NodeDefs)
	b.m.NodeDefs = append(b.m.NodeDefs, NodeDef{Name: name, Forwarding: true, Nets: nets})
	b.m.Gateways++
}

// link attaches an existing gateway to an existing net, updating the
// manifest entry in place.
func (b *builder) link(gw, net string) {
	if b.nw != nil {
		b.nw.Net(gw).AttachNodeToNet(gw, net)
	}
	i, ok := b.nodeAt[gw]
	if !ok {
		panic("topo: link to unknown gateway " + gw)
	}
	b.m.NodeDefs[i].Nets = append(b.m.NodeDefs[i].Nets, net)
}

// populate adds n hosts to a stub net behind the named gateway, with
// their default route pointing at it.
func (b *builder) populate(stub, gw string, n int) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%d", b.m.Hosts)
		if b.nw != nil {
			nw := b.nw.Net(name)
			nw.AddHost(name, stub)
			nw.SetDefaultRoute(name, gw)
		}
		b.nodeAt[name] = len(b.m.NodeDefs)
		b.m.NodeDefs = append(b.m.NodeDefs, NodeDef{Name: name, Nets: []string{stub}})
		b.m.Hosts++
	}
}

// Generate builds the internet spec describes, deterministically from
// seed: the same (spec, seed) always wires the same graph with the
// same names, prefixes and media, and the returned Manifest describes
// it exactly. Hosts get static default routes to their stub gateway at
// build time; gateway routing (static oracle or RIP) is the caller's
// choice.
func Generate(spec Spec, seed int64) (*core.Network, *Manifest) {
	nw := core.New(seed)
	return nw, generate(spec, seed, &lab{regions: []*core.Network{nw}})
}

// ManifestOnly generates just the manifest — same graph, same names,
// same media draws as Generate, no live network.
func ManifestOnly(spec Spec, seed int64) *Manifest {
	return generate(spec, seed, nil)
}

func generate(spec Spec, seed int64, into *lab) *Manifest {
	if err := spec.validate(); err != nil {
		panic(err)
	}
	b := &builder{
		nw:     into,
		m:      &Manifest{Schema: ManifestSchema, Spec: spec.String(), Seed: seed},
		rng:    rand.New(rand.NewSource(seed)),
		mix:    spec.Mix,
		nodeAt: make(map[string]int),
	}

	// Phase 1: backbone gateways, each with (outside transit-stub) a
	// stub LAN of hosts.
	withStubs := spec.Shape != TransitStub
	for i := 0; i < spec.Gateways; i++ {
		name := fmt.Sprintf("g%d", i)
		if withStubs {
			stub := b.addStub()
			b.addGateway(name, stub)
			b.populate(stub, name, spec.Hosts)
		} else {
			// Transit gateways carry no hosts; they are born on
			// their first ring trunk below.
			b.addGateway(name, b.addTrunk())
		}
	}

	// Phase 2: the backbone edge set, shape by shape.
	switch spec.Shape {
	case Line:
		for i := 0; i+1 < spec.Gateways; i++ {
			b.connect(i, i+1)
		}
	case Ring:
		for i := 0; i+1 < spec.Gateways; i++ {
			b.connect(i, i+1)
		}
		if spec.Gateways > 2 {
			b.connect(spec.Gateways-1, 0)
		}
	case Tree:
		for i := 1; i < spec.Gateways; i++ {
			b.connect((i-1)/spec.Degree, i)
		}
	case TransitStub:
		b.buildTransitStub(spec)
	case Waxman:
		b.buildWaxman(spec)
	}

	b.m.Nets = len(b.m.NetDefs)
	if spec.Directories > 0 {
		b.m.Directories = placeDirectories(b.m, spec, spec.Directories)
	}
	return b.m
}

// placeDirectories picks n gateways to host directory replicas, evenly
// spaced over the generated order so the replicas spread across the
// internet — and across any region partition a sharded build cuts. On
// transit-stub graphs the transit ring is skipped: directories belong
// at the edge, where crashing one cannot cut the backbone.
func placeDirectories(m *Manifest, spec Spec, n int) []string {
	var cand []string
	for _, nd := range m.NodeDefs {
		if nd.Forwarding {
			cand = append(cand, nd.Name)
		}
	}
	if spec.Shape == TransitStub && len(cand) > spec.Gateways {
		cand = cand[spec.Gateways:]
	}
	if n > len(cand) {
		n = len(cand)
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cand[i*len(cand)/n])
	}
	return out
}

// connect joins two backbone gateways with a fresh trunk.
func (b *builder) connect(i, j int) {
	t := b.addTrunk()
	b.link(fmt.Sprintf("g%d", i), t)
	b.link(fmt.Sprintf("g%d", j), t)
}

// buildTransitStub wires the two-tier shape: phase 1 already created
// transit gateways g0..gT-1 each owning one ring trunk (the trunk to
// its successor). Here the ring is closed, chords shorten the
// diameter (keeping worst-case paths far from the distance-vector
// infinity of 16), and each transit gateway gets StubsPer stub
// gateways, each owning a populated LAN.
func (b *builder) buildTransitStub(spec Spec) {
	T := spec.Gateways
	// Close the ring: g(i)'s own trunk t(i) runs to g(i+1 mod T).
	for i := 0; i < T; i++ {
		b.link(fmt.Sprintf("g%d", (i+1)%T), fmt.Sprintf("t%d", i))
	}
	// Chords across the ring.
	if T >= 6 {
		chords := T / 5
		for c := 0; c < chords; c++ {
			a := c * T / chords
			b.connect(a, (a+T/2)%T)
		}
	}
	// Stub tier.
	sg := T
	for i := 0; i < T; i++ {
		for j := 0; j < spec.StubsPer; j++ {
			access := b.addTrunk()
			b.link(fmt.Sprintf("g%d", i), access)
			stub := b.addStub()
			name := fmt.Sprintf("g%d", sg)
			sg++
			b.addGateway(name, access, stub)
			b.populate(stub, name, spec.Hosts)
		}
	}
}

// buildWaxman samples gateway positions in the unit square and links
// pairs with the classical probability, then chains any leftover
// components onto component zero so the graph is connected.
func (b *builder) buildWaxman(spec Spec) {
	n := spec.Gateways
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = b.rng.Float64()
		ys[i] = b.rng.Float64()
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	maxD := math.Sqrt2
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := math.Hypot(xs[i]-xs[j], ys[i]-ys[j])
			if b.rng.Float64() < spec.Alpha*math.Exp(-d/(spec.Beta*maxD)) {
				b.connect(i, j)
				parent[find(i)] = find(j)
			}
		}
	}
	// Bridge disconnected components to node 0's component.
	for i := 1; i < n; i++ {
		if find(i) != find(0) {
			b.connect(0, i)
			parent[find(i)] = find(0)
		}
	}
}
