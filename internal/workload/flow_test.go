package workload_test

import (
	"errors"
	"testing"
	"time"

	"darpanet/internal/core"
	"darpanet/internal/phys"
	"darpanet/internal/tcp"
	"darpanet/internal/workload"
)

// pair builds two hosts a and b on one 10 Mb/s LAN.
func pair() *core.Network {
	nw := core.New(3)
	nw.AddNet("n", "10.0.0.0/24", core.LAN, phys.Config{BitsPerSec: 10_000_000, Delay: time.Millisecond, MTU: 1500})
	nw.AddHost("a", "n")
	nw.AddHost("b", "n")
	return nw
}

func TestStartBulkCompletes(t *testing.T) {
	nw := pair()
	f := workload.StartBulk(nw, "a", "b", 80, 100_000, tcp.Options{})
	nw.RunFor(30 * time.Second)
	if !f.Done || f.BytesRx != 100_000 || f.Mismatched != 0 {
		t.Fatalf("done=%v received=%d mismatched=%d", f.Done, f.BytesRx, f.Mismatched)
	}
	if f.FCT() <= 0 || f.MaxStall <= 0 || f.MaxStall > f.FCT() {
		t.Fatalf("fct %v, max stall %v", f.FCT(), f.MaxStall)
	}
	if f.Err != nil {
		t.Fatalf("err = %v", f.Err)
	}
}

// TestStartBulkRefusesATakenPort: a second transfer to a port already
// listening used to dial anyway and land in the first transfer's count
// (200% of its target) while its own stayed at zero.
func TestStartBulkRefusesATakenPort(t *testing.T) {
	nw := pair()
	first := workload.StartBulk(nw, "a", "b", 80, 100_000, tcp.Options{})
	second := workload.StartBulk(nw, "a", "b", 80, 100_000, tcp.Options{})
	if !errors.Is(second.Err, tcp.ErrPortInUse) || second.Conn != nil {
		t.Fatalf("second transfer: err = %v, dialed = %v; want tcp.ErrPortInUse and no dial", second.Err, second.Conn != nil)
	}
	nw.RunFor(30 * time.Second)
	if first.Err != nil || first.BytesRx != 100_000 || second.BytesRx != 0 {
		t.Fatalf("first: err=%v received=%d, second received=%d; want the first transfer's own 100000 bytes only",
			first.Err, first.BytesRx, second.BytesRx)
	}
}

func TestStartQueries(t *testing.T) {
	nw := pair()
	f := workload.StartQueries(nw, "a", "b", 9999, 20, 10*time.Millisecond, 64, 0)
	nw.RunFor(5 * time.Second)
	if f.Sent != 20 || len(f.RTTs) != 20 || !f.Done || f.BytesRx != f.Size {
		t.Fatalf("sent=%d answered=%d done=%v received %d of %d", f.Sent, len(f.RTTs), f.Done, f.BytesRx, f.Size)
	}
	for _, rtt := range f.RTTs {
		if rtt <= 0 || rtt > 100*time.Millisecond {
			t.Fatalf("implausible rtt %v", rtt)
		}
	}
	if taken := workload.StartQueries(nw, "a", "b", 9999, 20, 10*time.Millisecond, 64, 0); taken.Err == nil || taken.Sent != 0 {
		t.Fatalf("a second responder on a taken port: err = %v, sent %d", taken.Err, taken.Sent)
	}
}

// TestBulkAcrossFragmentingLossyPathMatchesPattern sends bulk flows —
// StartBulk's and the engine's — across a gateway that fragments onto a
// 1%-loss, 256-byte-MTU link, and requires every completed flow to have
// received the pattern byte for byte. Under -tags pooldebug a pooled
// buffer released while still in use is poisoned, so if one reached
// OnData it shows here as mismatched bytes.
func TestBulkAcrossFragmentingLossyPathMatchesPattern(t *testing.T) {
	nw := core.New(1988)
	nw.AddNet("near", "10.1.0.0/24", core.P2P, phys.Config{BitsPerSec: 10_000_000, Delay: 2 * time.Millisecond, MTU: 1500, QueueLimit: 64})
	nw.AddNet("far", "10.2.0.0/24", core.P2P, phys.Config{BitsPerSec: 10_000_000, Delay: 2 * time.Millisecond, MTU: 256, Loss: 0.01, QueueLimit: 256})
	nw.AddHost("src", "near")
	nw.AddGateway("gw", "near", "far")
	nw.AddHost("dst", "far")
	nw.InstallStaticRoutes()

	var flows []*workload.Flow
	for i := range 4 {
		flows = append(flows, workload.StartBulk(nw, "src", "dst", uint16(80+i), 300_000, tcp.Options{MSS: 1400}))
	}
	spec := workload.DefaultSpec()
	spec.Bulk, spec.Interactive, spec.RR, spec.Voice = 1, 0, 0, 0
	spec.Rate, spec.MaxBytes, spec.VJ = 2, 200_000, true
	eng := workload.New(nw, []string{"src", "dst"}, spec, 7)
	eng.Arm(5 * time.Second)
	nw.RunFor(10 * time.Minute)

	for i, f := range flows {
		if !f.Done || f.Err != nil {
			t.Errorf("transfer %d: done=%v err=%v, received %d of %d", i, f.Done, f.Err, f.BytesRx, f.Size)
		}
	}
	completed := 0
	for _, f := range append(flows, eng.Flows()...) {
		if f.Done {
			completed++
			if f.Mismatched != 0 {
				t.Errorf("flow %d %s→%s: %d of %d bytes differ from the pattern", f.ID, f.Src, f.Dst, f.Mismatched, f.BytesRx)
			}
		}
	}
	if completed <= len(flows) {
		t.Fatalf("%d flows completed: the engine's bulk flows did not cross the path", completed)
	}
	if st := nw.Node("dst").Reassembler().Stats(); st.Fragments == 0 || st.Timeouts == 0 {
		t.Fatalf("reassembly saw %d fragments and %d timeouts: the lossy fragmenting path was not exercised", st.Fragments, st.Timeouts)
	}
}
