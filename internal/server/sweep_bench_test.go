package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fgpsim/internal/difftest"
	"fgpsim/internal/exp"
	"fgpsim/internal/interp"
	"fgpsim/internal/minic"
	"fgpsim/internal/server"
)

// BenchmarkSingleNodeSweep times single-node sweeps end to end through the
// HTTP API: from the first POST /sweep to the moment /metrics counts every
// sweep done, on a fresh server per iteration (Concurrency 2), with the
// journal on and off. It uses only server.New, the handler and exported
// types, so the same file runs against any version of the package:
//
//	go test -run '^$' -bench SingleNodeSweep -benchtime 5x -count 10 ./internal/server
//
// and compare two runs with scripts/benchcmp.sh.
//
//   - tiny: 40 generated programs (seed 11) × 12 short configurations, one
//     sweep per program — many short cells, so per-cell service cost shows.
//   - figures: sort × every configuration of exp.FigureConfigs in one
//     sweep — what a paper figure run waits for.
func BenchmarkSingleNodeSweep(b *testing.B) {
	tiny, err := tinySweeps(11, 40)
	if err != nil {
		b.Fatal(err)
	}
	figures := []server.SweepSpec{{Benches: []string{"sort"}, Configs: figureConfigSpecs(b)}}
	for _, set := range []struct {
		name  string
		specs []server.SweepSpec
	}{{"tiny", tiny}, {"figures", figures}} {
		for _, journal := range []bool{true, false} {
			name := set.name + "/journal"
			if !journal {
				name = set.name + "/nojournal"
			}
			b.Run(name, func(b *testing.B) {
				cells := 0
				for _, s := range set.specs {
					cells += len(s.Configs)
				}
				for i := 0; i < b.N; i++ {
					benchSweeps(b, set.specs, journal)
				}
				b.ReportMetric(float64(cells*b.N)/b.Elapsed().Seconds(), "cells/s")
			})
		}
	}
}

// benchSweeps runs specs on a fresh server, timing submission to the last
// sweep's completion, then checks every sweep settled clean.
func benchSweeps(b *testing.B, specs []server.SweepSpec, journal bool) {
	b.StopTimer()
	cfg := server.Config{Concurrency: 2}
	if journal {
		cfg.JournalDir = b.TempDir()
	}
	s, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Drain(context.Background())
	}()
	done0 := benchMetric(b, ts.URL, "jobs_done")

	b.StartTimer()
	ids := make([]string, len(specs))
	for i, spec := range specs {
		ids[i] = benchSubmit(b, ts.URL, spec)
	}
	for benchMetric(b, ts.URL, "jobs_done") < done0+float64(len(specs)) {
		time.Sleep(2 * time.Millisecond)
	}
	b.StopTimer()

	for _, id := range ids {
		var st struct {
			State  string   `json:"state"`
			Failed []string `json:"failed"`
		}
		benchGet(b, ts.URL+"/sweep/"+id, &st)
		if st.State != "done" || len(st.Failed) > 0 {
			b.Fatalf("sweep %s: state %s, failed %v", id, st.State, st.Failed)
		}
	}
}

func benchSubmit(b *testing.B, base string, spec server.SweepSpec) string {
	body, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(base+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil || resp.StatusCode != http.StatusAccepted {
		b.Fatalf("POST /sweep: %d %s %v", resp.StatusCode, m.Error, err)
	}
	return m.ID
}

func benchMetric(b *testing.B, base, name string) float64 {
	var m map[string]any
	benchGet(b, base+"/metrics", &m)
	v, ok := m[name].(float64)
	if !ok {
		b.Fatalf("/metrics has no counter %q", name)
	}
	return v
}

func benchGet(b *testing.B, url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		b.Fatal(err)
	}
}

// tinySweeps builds n sweeps of generated programs the way perfbench's
// fabric workload does: slot i draws programs with difftest sweep profile
// i mod 5 on a 64-byte input until one retires 6,000 to 10,000 nodes, and
// crosses it with static, dyn1 and dyn4 × single and enlarged blocks ×
// issue models 1 and 8 at memory configuration A.
func tinySweeps(seed int64, n int) ([]server.SweepSpec, error) {
	var cfgs []server.ConfigSpec
	for _, disc := range []string{"static", "dyn1", "dyn4"} {
		for _, br := range []string{"single", "enlarged"} {
			for _, issue := range []int{1, 8} {
				cfgs = append(cfgs, server.ConfigSpec{Disc: disc, Issue: issue, Mem: "A", Branch: br})
			}
		}
	}
	profiles := difftest.SweepProfiles()
	specs := make([]server.SweepSpec, n)
	next := seed * 1_000_000
	for i := range specs {
		for tries := 0; specs[i].Source == ""; tries++ {
			if tries == 1000 {
				return nil, fmt.Errorf("no generated program in the node band for slot %d", i)
			}
			ps := next
			next++
			src := difftest.Generate(ps, profiles[i%len(profiles)])
			in := difftest.GenInput(ps*2, 64)
			prog, err := minic.Compile("gen.mc", src, minic.Options{Optimize: true})
			if err != nil {
				return nil, err
			}
			ref, err := interp.Run(prog, in, nil, interp.Options{MaxNodes: 10_000})
			if errors.Is(err, interp.ErrNodeLimit) || err == nil && ref.RetiredNodes < 6_000 {
				continue
			}
			if err != nil {
				return nil, err
			}
			specs[i] = server.SweepSpec{Source: src, In0: string(in), Configs: cfgs}
		}
	}
	return specs, nil
}

// figureConfigSpecs expresses every exp.FigureConfigs configuration as the
// wire's ConfigSpec, checking that each resolves back to itself.
func figureConfigSpecs(b *testing.B) []server.ConfigSpec {
	var out []server.ConfigSpec
	for _, cfg := range exp.FigureConfigs() {
		cs := server.ConfigSpec{
			Disc:   cfg.Disc.String(),
			Issue:  cfg.Issue.ID,
			Mem:    string(cfg.Mem.ID),
			Branch: cfg.Branch.String(),
		}
		if got, err := cs.Config(); err != nil || got != cfg {
			b.Fatalf("ConfigSpec %+v resolves to %v (%v), want %v", cs, got, err, cfg)
		}
		out = append(out, cs)
	}
	return out
}
