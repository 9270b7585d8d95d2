package main

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"

	"ladder"
	"ladder/internal/introspect"
	"ladder/internal/timeline"
)

// TestLiveTimelineMatchesResult streams more epochs than the timeline
// keeps through the -http /timeline document and requires the document
// to end equal to the run's own timeline: the same decimated epochs
// under the same effective interval.
func TestLiveTimelineMatchesResult(t *testing.T) {
	srv, err := introspect.New("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cfg := ladder.Config{
		Workload: "lbm", Scheme: ladder.SchemeHybrid, InstrPerCore: 50_000, Seed: 3,
		TimelineInterval: 50,
	}
	publishRun(srv, &cfg)
	streamed := 0
	publish := cfg.TimelineOnEpoch
	cfg.TimelineOnEpoch = func(e ladder.TimelineEpoch) {
		streamed++
		publish(e)
	}
	res, err := ladder.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if streamed <= timeline.DefaultCapacity {
		t.Fatalf("streamed %d epochs, want more than %d", streamed, timeline.DefaultCapacity)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var live ladder.Timeline
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatal(err)
	}
	// Compare both through JSON, the form the document is served in.
	b, err := json.Marshal(res.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	var want ladder.Timeline
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, want) {
		t.Fatalf("live /timeline holds %d epochs of %d cycles, the run's timeline %d epochs of %d cycles",
			len(live.Epochs), live.EffectiveInterval, len(want.Epochs), want.EffectiveInterval)
	}
	t.Logf("%d streamed epochs; both hold %d epochs of %d cycles", streamed, len(want.Epochs), want.EffectiveInterval)
}
