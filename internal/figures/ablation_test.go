package figures

import (
	"strconv"
	"testing"
)

var ablationQuick = Options{Quick: true, Seed: 9}

func TestAnomalyGrowsWithJitter(t *testing.T) {
	tb := AnomalyVsJitter(ablationQuick)
	first, _ := strconv.ParseFloat(tb.Cell(0, 2), 64)
	last, _ := strconv.ParseFloat(tb.Cell(tb.Rows()-1, 2), 64)
	if last <= first {
		t.Errorf("anomaly rate should grow with drain jitter: %v -> %v", first, last)
	}
}

func TestTippingTracksMissLatency(t *testing.T) {
	tb := TippingVsMissLatency(ablationQuick)
	var prev float64 = -1
	for r := 0; r < tb.Rows(); r++ {
		n, err := strconv.ParseFloat(tb.Cell(r, 1), 64)
		if err != nil || n < 0 {
			t.Fatalf("row %d: no tipping point found (%q)", r, tb.Cell(r, 1))
		}
		if n < prev {
			t.Errorf("tipping padding should grow with miss latency: row %d: %v after %v", r, n, prev)
		}
		prev = n
		ratio, _ := strconv.ParseFloat(tb.Cell(r, 2), 64)
		if ratio < 0.3 || ratio > 0.7 {
			t.Errorf("row %d: tipping ratio %v escaped the ≈½ band", r, ratio)
		}
	}
}

func TestDSBGapGrowsWithSyncTxn(t *testing.T) {
	tb := BarrierCostVsSyncTxn(ablationQuick)
	var prev float64
	for r := 0; r < tb.Rows(); r++ {
		dsb, _ := strconv.ParseFloat(tb.Cell(r, 2), 64)
		if r > 0 && dsb >= prev {
			t.Errorf("DSB throughput should fall as SyncTxn grows: row %d %v >= %v", r, dsb, prev)
		}
		prev = dsb
	}
}

func TestPilotGainTablePopulated(t *testing.T) {
	tb := PilotGainVsStoreBuffer(ablationQuick)
	if tb.Rows() != 6 {
		t.Fatalf("rows = %d, want 6", tb.Rows())
	}
}
