package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stopwatch/internal/experiment"
	"stopwatch/internal/scenario"
)

func TestRunDownloadBaseline(t *testing.T) {
	if err := run([]string{"-scenario", "download", "-mode", "baseline", "-size", "10"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunDownloadStopWatchUDP(t *testing.T) {
	if err := run([]string{"-scenario", "download", "-mode", "stopwatch", "-size", "10", "-transport", "udp"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunNFS(t *testing.T) {
	if err := run([]string{"-scenario", "nfs", "-mode", "baseline", "-rate", "50", "-duration", "1"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestDownloadIsFig5Run: the download scenario is one Fig-5 run, so it
// prints exactly the latency RunFig5 averages for the same seed and size.
func TestDownloadIsFig5Run(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "download", "-seed", "11", "-size", "10", "-transport", "tcp", "-mode", "stopwatch"}, &out); err != nil {
		t.Fatal(err)
	}
	cfg := experiment.DefaultFig5Config()
	cfg.Seed, cfg.SizesKB, cfg.Runs = 11, []int{10}, 1
	r, err := experiment.RunFig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("latency:    %.2f ms\n", r.Points[0].HTTPStopWatch)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("output lacks %q:\n%s", want, out.String())
	}
}

func TestRunRejectsUnknowns(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "bogus"},
		{"-mode", "bogus"},
		{"-scenario", "download", "-transport", "bogus"},
		{"-scenario", "parsec", "-app", "bogus"},
		{"-scenario", "parsec", "-mode", "baseline"},       // runs both hypervisors
		{"-scenario", "sidechannel", "-mode", "stopwatch"}, // runs both hypervisors
		{"-nonflag"},
		{"-scenario", "lifecycle"}, // retired: points at scenarios/lifecycle.yaml
		{"run"},                    // no files
		{"validate"},               // no files
		{"run", "no-such-file.yaml"},
	} {
		if err := run(args, io.Discard); err == nil {
			t.Fatalf("args %v should fail", args)
		}
	}
}

const corpusDir = "../../scenarios"

// corpusFiles lists the shipped scenario corpus.
func corpusFiles(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".yaml" {
			files = append(files, filepath.Join(corpusDir, e.Name()))
		}
	}
	if len(files) < 5 {
		t.Fatalf("corpus has only %d scenario files", len(files))
	}
	return files
}

// TestValidateAllCorpus: every shipped scenario parses and passes every
// static check, via the same subcommand CI uses.
func TestValidateAllCorpus(t *testing.T) {
	if err := run([]string{"validate", corpusDir}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunLifecycle: the converted lifecycle walkthrough — the detector-
// driven machine failure, the scripted migration, the checkpointed
// journals — runs end-to-end with every assertion green, through the run
// subcommand.
func TestRunLifecycle(t *testing.T) {
	if err := run([]string{"run", "-q", filepath.Join(corpusDir, "lifecycle.yaml")}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestRunLifecycleWithListen: the observability server rides along without
// disturbing the scenario (same digest pins, same assertions), and a
// non-loopback address is refused up front.
func TestRunLifecycleWithListen(t *testing.T) {
	if err := run([]string{"run", "-q", "-listen", "127.0.0.1:0", filepath.Join(corpusDir, "lifecycle.yaml")}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"run", "-q", "-listen", "0.0.0.0:0", filepath.Join(corpusDir, "lifecycle.yaml")}, io.Discard); err == nil {
		t.Fatal("non-loopback listen address accepted")
	}
}

// TestLossyViewChangeNeedsReconcile: the lossy-view-change repro is green
// only because of the pre-view-commit survivor reconcile round. With the
// round force-disabled (the -no-reconcile experiment) the split proposal
// deliveries wedge one survivor through the view change, the evacuation
// never quiesces and the scenario fails on exactly the designed
// signature: strict-lockstep divergence and zeroed reconcile counters.
func TestLossyViewChangeNeedsReconcile(t *testing.T) {
	sc, err := scenario.Load(filepath.Join(corpusDir, "lossy-view-change.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(sc, scenario.Options{Seed: 1, DisableReconcile: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("scenario passed with the reconcile round disabled")
	}
	for _, want := range []string{
		"lockstep assertion srv",
		"stats assertion crash_evacuations: 0 below min 1",
		"stats assertion reconcile_repairs: 0 below min 1",
	} {
		found := false
		for _, f := range res.Failures {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("failures = %v, want one containing %q", res.Failures, want)
		}
	}
}

// TestScenarioDigestsStable: every CI-tagged scenario, under every
// declared seed, produces its pinned op-log digest — and the same digest
// for 1, 2 and 4 fabric shards. A change in any pin is a change in
// control-plane behavior and must be made deliberately (re-pin with
// `stopwatch-sim run scenarios/`).
func TestScenarioDigestsStable(t *testing.T) {
	for _, path := range corpusFiles(t) {
		sc, err := scenario.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.CI {
			continue
		}
		for _, seed := range sc.Seeds {
			pin := sc.Digests[seed]
			if pin == "" {
				t.Errorf("%s: seed %d has no digest pin", path, seed)
				continue
			}
			for _, shards := range []int{1, 2, 4} {
				res, err := scenario.Run(sc, scenario.Options{Seed: seed, Shards: shards})
				if err != nil {
					t.Fatalf("%s seed=%d shards=%d: %v", path, seed, shards, err)
				}
				for _, f := range res.Failures {
					t.Errorf("%s seed=%d shards=%d: %s", path, seed, shards, f)
				}
				if res.Digest != pin {
					t.Errorf("%s seed=%d shards=%d: digest %s, pinned %s", path, seed, shards, res.Digest, pin)
				}
			}
		}
	}
}
