package pipeline

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/fsm"
)

const corpusDir = "../../testdata/corpus"

// TestCorpusReplay runs every strategy over the corpus and requires the
// synthesized netlist to replay the input machine exactly. This is the
// end-to-end acceptance check: KISS2 -> constraints -> encoding -> espresso
// -> BLIF -> parse-back -> simulation. With -short only the two smallest
// machines run; the full matrix is the smoke test `make ci` relies on.
func TestCorpusReplay(t *testing.T) {
	machines, err := corpus.Load(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		machines = machines[:2]
	}
	for _, mach := range machines {
		for _, strat := range Strategies {
			mach, strat := mach, strat
			t.Run(mach.Name+"/"+string(strat), func(t *testing.T) {
				t.Parallel()
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				defer cancel()
				rep, err := Run(ctx, mach.FSM, Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Replay == nil {
					t.Fatal("report has no replay result")
				}
				if !rep.Replay.OK {
					t.Fatalf("replay failed: %s\nBLIF:\n%s", rep.Replay.Error, rep.BLIF)
				}
				if rep.Cubes <= 0 || rep.Literals <= 0 {
					t.Fatalf("degenerate minimized PLA: cubes=%d literals=%d", rep.Cubes, rep.Literals)
				}
				if rep.Bits <= 0 {
					t.Fatalf("bits=%d", rep.Bits)
				}
			})
		}
	}
}

// TestSuiteReplay hunts encode/decode asymmetries beyond the corpus:
// larger generated machines (15–20 states, wider input spaces) through the
// fast strategies. Gated behind -short because the machines are bigger.
func TestSuiteReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("larger generated machines")
	}
	for _, name := range []string{"dk512", "master", "bbsse", "exlinp"} {
		m, err := fsm.GenerateByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, strat := range []Strategy{Heuristic, Nova} {
			m, strat := m, strat
			t.Run(name+"/"+string(strat), func(t *testing.T) {
				t.Parallel()
				rep, err := Run(context.Background(), m, Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Replay.OK {
					t.Fatalf("replay failed: %s", rep.Replay.Error)
				}
			})
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, s := range Strategies {
		got, ok := ParseStrategy(string(s))
		if !ok || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseStrategy("bogus"); ok {
		t.Fatal("ParseStrategy accepted bogus")
	}
	if !strings.Contains(StrategyList(), "exact") {
		t.Fatalf("StrategyList() = %q", StrategyList())
	}
}

// Reports must be deterministic (modulo wall time) so the committed paper
// tables can be regenerated byte-identically.
func TestRunDeterministic(t *testing.T) {
	machines, err := corpus.Load(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	mach, ok := corpus.Find(machines, "dk27")
	if !ok {
		t.Fatal("dk27 not in corpus")
	}
	for _, strat := range Strategies {
		a, err := Run(context.Background(), mach.FSM, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(context.Background(), mach.FSM, Options{Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		a.ClearTimes()
		b.ClearTimes()
		if a.JSON() != b.JSON() {
			t.Fatalf("%s: two runs differ:\n%s\n----\n%s", strat, a.JSON(), b.JSON())
		}
	}
}

// TestOneStateMachine runs machines with a single state, given or left by
// state minimization, through every strategy: each must return promptly
// with a netlist that replays. The annealer used to spin forever on a
// one-symbol set.
func TestOneStateMachine(t *testing.T) {
	cases := []struct {
		name, kiss string
		minimize   bool
	}{
		{"one state", ".i 1\n.o 1\n- a a 1\n", false},
		{"minimized to one", ".i 1\n.o 1\n- a b 1\n- b a 1\n", true},
	}
	for _, tc := range cases {
		for _, strat := range Strategies {
			t.Run(tc.name+"/"+string(strat), func(t *testing.T) {
				type result struct {
					rep *Report
					err error
				}
				done := make(chan result, 1)
				go func() {
					rep, err := RunKISS(context.Background(), strings.NewReader(tc.kiss), "one",
						Options{Strategy: strat, MinimizeStates: tc.minimize})
					done <- result{rep, err}
				}()
				select {
				case r := <-done:
					if r.err != nil {
						t.Fatal(r.err)
					}
					if r.rep.EncodedStates != 1 || !r.rep.Replay.OK {
						t.Fatalf("encoded states %d, replay %+v; want 1 state replaying ok", r.rep.EncodedStates, r.rep.Replay)
					}
				case <-time.After(time.Minute):
					t.Fatal("pipeline did not return")
				}
			})
		}
	}
}
