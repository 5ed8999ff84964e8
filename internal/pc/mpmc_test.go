package pc

import (
	"testing"

	"armbar/internal/platform"
)

func TestMPMCCorrectBothModes(t *testing.T) {
	for _, mode := range []MPMCMode{LockedRing, PilotFanIn} {
		r := RunMPMC(MPMCConfig{Plat: platform.Kunpeng916(), Producers: 4,
			Messages: 150, Mode: mode, Seed: 3})
		if !r.Valid {
			t.Errorf("%v: checksum mismatch", mode)
		}
	}
}

func TestMPMCPilotFanInBeatsLockedRing(t *testing.T) {
	// The per-pair Pilot channels avoid both the lock and the
	// publication barriers; with several producers the locked ring
	// serializes everything.
	lr := RunMPMC(MPMCConfig{Plat: platform.Kunpeng916(), Producers: 6,
		Messages: 150, Mode: LockedRing, Seed: 5}).Throughput()
	pf := RunMPMC(MPMCConfig{Plat: platform.Kunpeng916(), Producers: 6,
		Messages: 150, Mode: PilotFanIn, Seed: 5}).Throughput()
	if pf < 1.2*lr {
		t.Errorf("pilot fan-in (%g) should clearly beat the locked ring (%g)", pf, lr)
	}
}

func TestMPMCDeterministic(t *testing.T) {
	cfg := MPMCConfig{Plat: platform.Kunpeng916(), Producers: 3, Messages: 80,
		Mode: PilotFanIn, Seed: 9}
	if RunMPMC(cfg).Cycles != RunMPMC(cfg).Cycles {
		t.Fatal("non-deterministic")
	}
}

func TestPublicationBothModesConsistent(t *testing.T) {
	p := platform.Kunpeng916()
	for _, mode := range []PubMode{Seqlock, PilotBatch} {
		r := RunPub(PubConfig{Plat: p, Writer: 0, Reader: 32, Mode: mode,
			Words: 4, Updates: 300, Seed: 7})
		// Only the seqlock's Torn is a measurement: the Pilot reader
		// accepts a snapshot only when every slice decodes to the
		// update's exact record, so its Torn is false by construction.
		if r.Torn {
			t.Errorf("%v: torn snapshot observed", mode)
		}
		if r.Snapshots == 0 {
			t.Errorf("%v: reader took no snapshots", mode)
		}
	}
}

func TestPilotPublicationCompetitiveWithSeqlock(t *testing.T) {
	// The seqlock pays two DMB st per update plus reader retries under
	// write pressure; Pilot pays neither. With a fast writer the Pilot
	// reader should take at least comparably many consistent snapshots.
	p := platform.Kunpeng916()
	sq := RunPub(PubConfig{Plat: p, Writer: 0, Reader: 32, Mode: Seqlock,
		Words: 4, Updates: 400, Gap: 120, Seed: 9})
	pi := RunPub(PubConfig{Plat: p, Writer: 0, Reader: 32, Mode: PilotBatch,
		Words: 4, Updates: 400, Gap: 120, Seed: 9})
	if pi.SnapshotRate() < 0.5*sq.SnapshotRate() {
		t.Errorf("pilot snapshot rate (%g) should be competitive with seqlock (%g)",
			pi.SnapshotRate(), sq.SnapshotRate())
	}
	if pi.Torn || sq.Torn {
		t.Error("torn snapshots")
	}
}
