package main

import (
	"reflect"
	"testing"

	"stopwatch/internal/scenario"
)

// TestPresetMatchesCorpusFile: the pinned preset's translation equals
// scenarios/churn.yaml in everything that drives the run, so the CLI and
// the corpus file cannot drift apart.
func TestPresetMatchesCorpusFile(t *testing.T) {
	o, err := parse(pinnedArgs(1))
	if err != nil {
		t.Fatal(err)
	}
	file, err := scenario.Load("../../scenarios/churn.yaml")
	if err != nil {
		t.Fatal(err)
	}
	got, want := runShape(o.sc), runShape(file)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("translated preset differs from scenarios/churn.yaml:\n got %+v\nwant %+v", got, want)
	}
}

// runShape copies a scenario without the fields that name, document, pin
// or locate it.
func runShape(sc *scenario.Scenario) scenario.Scenario {
	s := *sc
	s.Path, s.Name, s.Description, s.CI, s.Seeds, s.Digests = "", "", "", false, nil, nil
	s.Fleet.Guests = append([]scenario.GuestSpec(nil), sc.Fleet.Guests...)
	for i := range s.Fleet.Guests {
		s.Fleet.Guests[i].Line = 0
	}
	s.Events = append([]scenario.Event(nil), sc.Events...)
	for i := range s.Events {
		s.Events[i].Line = 0
	}
	s.Assertions = append([]scenario.Assertion(nil), sc.Assertions...)
	for i := range s.Assertions {
		s.Assertions[i].Line = 0
	}
	if sc.Arrivals != nil {
		a := *sc.Arrivals
		a.Line = 0
		s.Arrivals = &a
	}
	return s
}
