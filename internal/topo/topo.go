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

	// The graph by position, built once by generate: node and net name
	// to NodeDefs and NetDefs index, and the attachments both ways.
	nodeAt, netAt      map[string]int
	nodeNets, netNodes csr
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

// NodeIndex and NetIndex return a node's position in NodeDefs and a
// net's in NetDefs, or -1 for a name the manifest lacks.
func (m *Manifest) NodeIndex(name string) int { return lookup(m.nodeAt, name) }
func (m *Manifest) NetIndex(name string) int  { return lookup(m.netAt, name) }

// NodeNets lists the nets node i (a NodeDefs index) attaches to, as
// NetDefs indices in attachment order; NetNodes lists the nodes on net
// j, as NodeDefs indices in NodeDefs order. Both are the manifest's own
// rows: read them, do not modify them.
func (m *Manifest) NodeNets(i int) []int { return m.nodeNets.row(i) }
func (m *Manifest) NetNodes(j int) []int { return m.netNodes.row(j) }

func lookup(index map[string]int, name string) int {
	if i, ok := index[name]; ok {
		return i
	}
	return -1
}

// NetHops computes, for every network, the minimum number of gateways a
// datagram from the named node crosses to enter it (0 for directly
// attached nets), indexed like NetDefs; -1 marks a net the node cannot
// reach. This is the BFS oracle the property tests compare routing
// state against: the static oracle's route metric equals NetHops
// exactly, and a converged distance-vector metric equals NetHops+1
// (direct routes advertise metric 1). It reads only the manifest's
// graph, never core's routes.
func (m *Manifest) NetHops(from string) []int {
	dist := make([]int, len(m.NetDefs))
	for i := range dist {
		dist[i] = -1
	}
	src, ok := m.nodeAt[from]
	if !ok {
		return dist
	}
	// A breadth-first walk over nets: a net at distance d makes every
	// gateway on it one more hop from the nets it also joins. Hosts
	// other than the source do not forward, so they are never crossed.
	queue := make([]int, 0, len(m.NetDefs))
	for _, n := range m.nodeNets.row(src) {
		dist[n] = 0
		queue = append(queue, n)
	}
	crossed := make([]bool, len(m.NodeDefs))
	crossed[src] = true
	for q := 0; q < len(queue); q++ {
		d := dist[queue[q]] + 1
		for _, v := range m.netNodes.row(queue[q]) {
			if crossed[v] || !m.NodeDefs[v].Forwarding {
				continue
			}
			crossed[v] = true
			for _, n := range m.nodeNets.row(v) {
				if dist[n] < 0 {
					dist[n] = d
					queue = append(queue, n)
				}
			}
		}
	}
	return dist
}

// csr is one side of the manifest's incidence graph in compressed
// sparse rows: row i is to[off[i]:off[i+1]], capped there so an append
// to a row copies it rather than overwriting the next.
type csr struct{ off, to []int }

func (c csr) row(i int) []int { return c.to[c.off[i]:c.off[i+1]:c.off[i+1]] }

// index lays out the incidence graph generate wired as flat rows, once
// per manifest: each node's nets in attachment order, and each net's
// nodes in NodeDefs order. The order matters: a cross trunk's two
// sides are its nodes in that order (lab.AddNet), the same whichever
// end a shape wired first.
func (m *Manifest) index() {
	n := 0
	for _, nd := range m.NodeDefs {
		n += len(nd.Nets)
	}
	m.nodeNets = csr{off: make([]int, len(m.NodeDefs)+1), to: make([]int, 0, n)}
	m.netNodes = csr{off: make([]int, len(m.NetDefs)+1), to: make([]int, n)}
	for i, nd := range m.NodeDefs {
		for _, name := range nd.Nets {
			j := m.netAt[name]
			m.nodeNets.to = append(m.nodeNets.to, j)
			m.netNodes.off[j+1]++
		}
		m.nodeNets.off[i+1] = len(m.nodeNets.to)
	}
	for j := range m.NetDefs {
		m.netNodes.off[j+1] += m.netNodes.off[j]
	}
	next := slices.Clone(m.netNodes.off[:len(m.NetDefs)])
	for i := range m.NodeDefs {
		for _, j := range m.nodeNets.row(i) {
			m.netNodes.to[next[j]] = i
			next[j]++
		}
	}
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
// a boundary pair between the regions of its ends. The regions are those
// of part, the partitioned first pass of the same (spec, seed), whose
// nodes and nets sit at the indices the builder is wiring; a nil part
// wires all to the one region (Generate). A nil lab keeps only the
// manifest (a throwaway serial network would double a sharded build's
// cost).
type lab struct {
	regions []*core.Network
	part    *Manifest
}

// Net returns the network node i is, or is to be, wired into.
func (l *lab) Net(i int) *core.Network {
	if l.part == nil {
		return l.regions[0]
	}
	return l.regions[l.part.Partition.NodeRegions[i]]
}

// AddNet adds net j to its region, or to the regions of its two ends.
func (l *lab) AddNet(j int, name, prefix string, kind core.NetKind, cfg phys.Config) {
	r := 0
	if l.part != nil {
		r = l.part.Partition.NetRegions[j]
	}
	if r >= 0 {
		l.regions[r].AddNet(name, prefix, kind, cfg)
		return
	}
	ends := l.part.netNodes.row(j)
	core.AddCrossTrunk(l.Net(ends[0]), l.Net(ends[1]), name, prefix, cfg)
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
		b.nw.AddNet(len(b.m.NetDefs), name, prefix, kind, cfg)
	}
	b.m.netAt[name] = len(b.m.NetDefs)
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
		b.nw.Net(len(b.m.NodeDefs)).AddGateway(name, nets...)
	}
	b.m.nodeAt[name] = len(b.m.NodeDefs)
	b.m.NodeDefs = append(b.m.NodeDefs, NodeDef{Name: name, Forwarding: true, Nets: nets})
	b.m.Gateways++
}

// link attaches an existing gateway to an existing net, updating the
// manifest entry in place.
func (b *builder) link(gw, net string) {
	i, ok := b.m.nodeAt[gw]
	if !ok {
		panic("topo: link to unknown gateway " + gw)
	}
	if b.nw != nil {
		b.nw.Net(i).AttachNodeToNet(gw, net)
	}
	b.m.NodeDefs[i].Nets = append(b.m.NodeDefs[i].Nets, net)
}

// populate adds n hosts to a stub net behind the named gateway, with
// their default route pointing at it.
func (b *builder) populate(stub, gw string, n int) {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%d", b.m.Hosts)
		if b.nw != nil {
			nw := b.nw.Net(len(b.m.NodeDefs))
			nw.AddHost(name, stub)
			nw.SetDefaultRoute(name, gw)
		}
		b.m.nodeAt[name] = len(b.m.NodeDefs)
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
		nw: into,
		m: &Manifest{
			Schema: ManifestSchema, Spec: spec.String(), Seed: seed,
			nodeAt: make(map[string]int),
			netAt:  make(map[string]int, spec.minNets()),
		},
		rng: rand.New(rand.NewSource(seed)),
		mix: spec.Mix,
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
	b.m.index()
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
	cand := m.GatewayNames()
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
