package core

// CrashNode models abrupt node failure — the paper's gateway loss. The
// routing process loses its RAM first (so the dying node does not poison
// the survivors on its way down), then the IP layer tears down: every
// interface goes dark, queued frames drop with their pooled buffers
// released, partial reassemblies flush. The node holds no conversation
// state (fate-sharing); the question survivability asks is whether
// everyone else copes. It acts on the whole internet; during a sharded
// run, call it (and SetNetDown) from a ShardGroup.At observer.
func (nw *Network) CrashNode(name string) {
	if r := nw.RIP(name); r != nil {
		r.Crash()
	}
	nw.Node(name).Crash()
}

// RestoreNode reboots a crashed node: interfaces come back up and, if the
// node ran RIP, the routing process restarts from scratch and
// re-converges from its neighbors.
func (nw *Network) RestoreNode(name string) {
	nw.Node(name).Restart()
	if r := nw.RIP(name); r != nil {
		r.Start()
	}
}

// SetNetDown cuts (or restores) every medium of a net, both trunk halves.
func (nw *Network) SetNetDown(net string, down bool) {
	media := nw.Media(net)
	if media == nil {
		nw.mustNet(net) // no region has the net: panics
	}
	for _, m := range media {
		m.SetDown(down)
	}
}
