package sim

import (
	"reflect"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/engine"
)

// TestSimLimitsBoundCaches exercises the LRU bounds through the simulator
// driver: tight caps keep the run correct while forcing evictions.
func TestSimLimitsBoundCaches(t *testing.T) {
	c, reqs := workload(t, 10, 12, 7)
	res, err := Run(Config{
		Collection:    c,
		Mode:          broadcast.TwoTierMode,
		CycleCapacity: capacityFor(c),
		Requests:      reqs,
		Limits: engine.Limits{
			MaxAnswerCacheEntries: 2,
			MaxPayloadCacheBytes:  2 << 10,
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, cl := range res.Clients {
		if want := reqs[i].Query.MatchingDocs(c); !reflect.DeepEqual(cl.Docs, want) {
			t.Errorf("client %d docs = %v, want %v", i, cl.Docs, want)
		}
	}
	if res.Engine.PayloadEvictions == 0 {
		t.Error("2 KB payload cache recorded no evictions")
	}
}
