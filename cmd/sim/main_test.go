package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fgpsim/internal/chaos"
	"fgpsim/internal/core"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/faultinject"
	"fgpsim/internal/interp"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/minic"
	"fgpsim/internal/snapshot"
	"fgpsim/internal/stats"
)

// A small branchy program so the enlargement builder produces chains worth
// corrupting.
const degradeSrc = `
int counts[128];

int main() {
	int c;
	int words = 0;
	int lines = 0;
	int inword = 0;
	c = getc(0);
	while (c >= 0) {
		counts[c & 127]++;
		if (c == '\n') lines++;
		if (c == ' ' || c == '\n' || c == '\t') {
			inword = 0;
		} else if (!inword) {
			inword = 1;
			words++;
		}
		c = getc(0);
	}
	putc('0' + (lines % 10));
	putc('0' + (words % 10));
	putc('\n');
	return 0;
}
`

// TestCorruptEnlargementDegradesEndToEnd drives the corrupt-enlargement
// degrade path through the real binaries' pipeline: build an enlargement
// file, corrupt it with faultinject.CorruptEnlargement, load the image the
// way cmd/tld now does (LoadDegrading), and run it through cmd/sim's run().
// The run must exit cleanly (nil error), produce byte-identical program
// output, and report EFDegradations > 0 in its statistics.
func TestCorruptEnlargementDegradesEndToEnd(t *testing.T) {
	prog, err := minic.Compile("degrade.mc", degradeSrc, minic.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	input := []byte("the quick brown fox\njumps over the lazy dog\npack my box\n")

	prof := interp.NewProfile()
	ref, err := interp.Run(prog, input, nil, interp.Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	ef := enlarge.Build(prog, prof, enlarge.DefaultOptions())
	if len(ef.Chains) == 0 {
		t.Fatal("enlargement produced no chains; nothing to corrupt")
	}

	cfg, err := machine.ParseConfig("dyn4", 8, "A", "enlarged")
	if err != nil {
		t.Fatal(err)
	}

	// Find a seed whose corruption the loader actually rejects (some
	// perturbations can coincide with a still-valid chain).
	var corrupt *enlarge.File
	for seed := uint64(1); seed <= 32; seed++ {
		c := faultinject.CorruptEnlargement(ef, seed)
		_, err := loader.Load(prog, cfg, c)
		var be *loader.BadEnlargementError
		if errors.As(err, &be) {
			corrupt = c
			break
		}
	}
	if corrupt == nil {
		t.Fatal("no corruption seed produced a loader-rejected enlargement file")
	}

	img, err := loader.LoadDegrading(prog, cfg, corrupt)
	if err != nil {
		t.Fatalf("LoadDegrading failed instead of degrading: %v", err)
	}
	if !img.Degraded {
		t.Fatal("image not marked Degraded")
	}

	dir := t.TempDir()
	imgPath := filepath.Join(dir, "degrade.img")
	if err := img.WriteFile(imgPath); err != nil {
		t.Fatal(err)
	}
	in0Path := filepath.Join(dir, "in0.txt")
	if err := os.WriteFile(in0Path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.bin")

	// Capture the stats report cmd/sim prints to stderr.
	oldStderr := os.Stderr
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = pw
	stderrCh := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, pr)
		stderrCh <- buf.String()
	}()

	runErr := run(imgPath, in0Path, "", outPath, "", "", "", "", false, true, 0, 0, 0, 0, false, ckptOpts{})

	pw.Close()
	os.Stderr = oldStderr
	stderr := <-stderrCh
	pr.Close()

	if runErr != nil {
		t.Fatalf("sim run on degraded image failed (non-zero exit): %v", runErr)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Output) {
		t.Errorf("degraded run output %q differs from reference %q", got, ref.Output)
	}
	if !strings.Contains(stderr, "ef degradations") {
		t.Errorf("stats report does not mention EF degradations:\n%s", stderr)
	}
}

// TestCheckpointRestoreCLI drives -checkpoint/-restore through run(): an
// interrupted armed run leaves a snapshot behind, a -restore run picks it
// up and produces the reference output, and a completed run cleans up. The
// bit-identical resume guarantee itself is enforced by
// difftest.SnapshotOracle; this covers the CLI wiring around it.
func TestCheckpointRestoreCLI(t *testing.T) {
	prog, err := minic.Compile("ckpt.mc", degradeSrc, minic.Options{Optimize: true})
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Repeat([]byte("checkpoint restore round trip\nacross two lives\n"), 100)
	ref, err := interp.Run(prog, input, nil, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := machine.ParseConfig("dyn4", 4, "A", "single")
	if err != nil {
		t.Fatal(err)
	}
	img, err := loader.Load(prog, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	imgPath := filepath.Join(dir, "ckpt.img")
	if err := img.WriteFile(imgPath); err != nil {
		t.Fatal(err)
	}
	in0Path := filepath.Join(dir, "in0.txt")
	if err := os.WriteFile(in0Path, input, 0o644); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "run.snap")
	outPath := filepath.Join(dir, "out.bin")

	runSim := func(ck ckptOpts) error {
		return run(imgPath, in0Path, "", outPath, "", "", "", "", false, false, 0, 0, 0, 0, false, ckptOpts{
			path: ck.path, every: ck.every, restore: ck.restore,
		})
	}

	// Life 1: interrupt an armed run mid-flight by capping its cycles below
	// the full runtime, leaving a parked snapshot behind.
	fp := snapshot.RunFingerprint(img, input, nil, nil)
	lim := core.Limits{CheckpointEvery: 500, MaxCycles: 2000, Checkpoint: snapshot.Saver(chaos.OS{}, snapPath, fp, nil)}
	if _, err := core.RunContext(context.Background(), img, input, nil, nil, nil, lim); err == nil {
		t.Fatal("capped run finished; raise the program size or lower MaxCycles")
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("interrupted run parked no snapshot: %v", err)
	}

	// Life 2: -restore resumes from the snapshot, completes, produces the
	// reference output, and removes the snapshot.
	if err := runSim(ckptOpts{path: snapPath, every: 500, restore: true}); err != nil {
		t.Fatalf("restore run: %v", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Output) {
		t.Errorf("restored run output %q differs from reference %q", got, ref.Output)
	}
	if _, err := os.Stat(snapPath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed run left its snapshot behind: %v", err)
	}

	// -restore with nothing to restore starts fresh and still succeeds.
	if err := runSim(ckptOpts{path: snapPath, every: 500, restore: true}); err != nil {
		t.Fatalf("fresh -restore run: %v", err)
	}

	// A snapshot from a different run (wrong fingerprint) is refused.
	wrong := &snapshot.Snapshot{Fingerprint: fp ^ 0xdead, Engine: &core.EngineState{Stats: &stats.Run{}}}
	if err := snapshot.WriteFile(chaos.OS{}, snapPath, wrong); err != nil {
		t.Fatal(err)
	}
	err = runSim(ckptOpts{path: snapPath, every: 500, restore: true})
	if err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("mismatched fingerprint: err = %v, want fingerprint refusal", err)
	}

	// Flag contract checks.
	if err := run(imgPath, in0Path, "", outPath, "", "", "", "", false, false, 0, 0, 0, 0, false,
		ckptOpts{restore: true}); err == nil || !strings.Contains(err.Error(), "-restore requires -checkpoint") {
		t.Errorf("-restore without -checkpoint: err = %v", err)
	}
	if err := run(imgPath, in0Path, "", outPath, "", "", "", "", false, false, 0, 0, 0, 0, false,
		ckptOpts{path: snapPath, every: -1}); err == nil || !strings.Contains(err.Error(), "-checkpoint-every") {
		t.Errorf("negative cadence: err = %v", err)
	}
}
