package fleet

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func TestValidateRejectsDegenerateSpecs(t *testing.T) {
	type tc struct {
		name string
		spec Spec
	}
	cases := []tc{
		{"empty", Spec{}},
		{"no name", Spec{Profiles: []Profile{{Share: 1, Mobility: "static"}}}},
		{"zero share", Spec{Profiles: []Profile{{Name: "a", Share: 0, Mobility: "static"}}}},
		{"negative share", Spec{Profiles: []Profile{{Name: "a", Share: -2, Mobility: "static"}}}},
		{"NaN share", Spec{Profiles: []Profile{{Name: "a", Share: math.NaN(), Mobility: "static"}}}},
		{"infinite share", Spec{Profiles: []Profile{{Name: "a", Share: math.Inf(1), Mobility: "static"}}}},
		{"duplicate", Spec{Profiles: []Profile{
			{Name: "a", Share: 1, Mobility: "static"},
			{Name: "a", Share: 1, Mobility: "static"},
		}}},
		{"negative speed", Spec{Profiles: []Profile{{Name: "a", Share: 1, Mobility: "static", SpeedMPS: -1}}}},
		{"jitter >= 1", Spec{Profiles: []Profile{{Name: "a", Share: 1, Mobility: "static", SpeedJitter: 1}}}},
	}
	// A non-finite speed or jitter on an otherwise valid default profile.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		speed, jitter := DefaultSpec(), DefaultSpec()
		speed.Profiles[0].SpeedMPS = v
		jitter.Profiles[0].SpeedJitter = v
		cases = append(cases, tc{fmt.Sprintf("speed %v", v), speed}, tc{fmt.Sprintf("jitter %v", v), jitter})
	}
	for _, c := range cases {
		if err := c.spec.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: Validate(%+v) = %v, want ErrBadSpec", c.name, c.spec, err)
		}
	}
	if err := DefaultSpec().Validate(); err != nil {
		t.Fatalf("DefaultSpec invalid: %v", err)
	}
}

func TestCountsLargestRemainder(t *testing.T) {
	spec := DefaultSpec() // shares 60/25/15
	counts := spec.Counts(100)
	if want := []int{60, 25, 15}; !reflect.DeepEqual(counts, want) {
		t.Fatalf("Counts(100) = %v, want %v", counts, want)
	}
	// Awkward populations still sum exactly.
	for _, n := range []int{1, 2, 3, 7, 97, 500, 4999, 10000} {
		counts := spec.Counts(n)
		sum := 0
		for _, c := range counts {
			sum += c
			if c < 0 {
				t.Fatalf("Counts(%d) = %v has a negative count", n, counts)
			}
		}
		if sum != n {
			t.Fatalf("Counts(%d) sums to %d: %v", n, sum, counts)
		}
	}
}

func TestAssignDeterministicAndSeedStable(t *testing.T) {
	spec := DefaultSpec()
	a := spec.Assign(1000, 42)
	b := spec.Assign(1000, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Assign is not deterministic for equal (spec, n, seed)")
	}
	c := spec.Assign(1000, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("Assign ignored the seed: different seeds produced identical shuffles")
	}
	// The shuffle permutes but never changes the apportionment.
	counts := make([]int, len(spec.Profiles))
	for _, p := range a {
		counts[p]++
	}
	if want := spec.Counts(1000); !reflect.DeepEqual(counts, want) {
		t.Fatalf("Assign counts %v, want %v", counts, want)
	}
}

func TestAssignMixesProfiles(t *testing.T) {
	// The shuffle must break up the contiguous profile blocks: the first
	// 10% of a 60/25/15 assignment should not be single-profile.
	a := DefaultSpec().Assign(1000, 7)
	seen := make(map[int]bool)
	for _, p := range a[:100] {
		seen[p] = true
	}
	if len(seen) < 2 {
		t.Fatalf("first 100 MNs all landed on one profile: %v", seen)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("pedestrian-voice=60, vehicular-video=25,stationary-data=15")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Profiles) != 3 {
		t.Fatalf("parsed %d profiles", len(spec.Profiles))
	}
	if spec.Profiles[0].Share != 60 || spec.Profiles[1].Share != 25 || spec.Profiles[2].Share != 15 {
		t.Fatalf("shares wrong: %v", spec)
	}
	if spec.Profiles[0].Mobility != "waypoint" || !spec.Profiles[0].Traffic.Voice {
		t.Fatalf("builtin pedestrian-voice wrong: %+v", spec.Profiles[0])
	}
	// String renders ParseSpec-compatible text.
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", spec.String(), err)
	}
	if !reflect.DeepEqual(spec, again) {
		t.Fatalf("round trip changed the spec:\n%+v\n%+v", spec, again)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{"nope=10", "pedestrian-voice=x", "pedestrian-voice=0", ""} {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestParseSpecBareNameTakesShareOne(t *testing.T) {
	spec, err := ParseSpec("cyclist-mixed")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Profiles[0].Share != 1 {
		t.Fatalf("bare name share = %v", spec.Profiles[0].Share)
	}
	if spec.Profiles[0].Traffic.DataMeanInterval != 2*time.Second {
		t.Fatalf("cyclist-mixed data interval = %v", spec.Profiles[0].Traffic.DataMeanInterval)
	}
}
