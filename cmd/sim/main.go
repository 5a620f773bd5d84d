// Command sim is the run-time simulator: it executes an image produced by
// cmd/tld cycle by cycle and reports the paper's statistics. With
// -functional it runs the untimed interpreter instead, which is how
// profiles (for cmd/bbe) and traces (for perfect-prediction simulations)
// are collected — the second half of the paper's two-part simulator.
//
// Usage:
//
//	sim -img prog.img -in0 input.txt [-in1 other.txt]
//	    [-hintsfrom prof.json] [-usetrace prog.trc]
//	    [-out output.bin] [-stats] [-timeout 30s]
//	    [-checkpoint run.snap] [-checkpoint-every 1000000] [-restore]
//	    [-fault-seed 1 -fault-rate 0.001] [-fault-arch]
//	    [-cpuprofile cpu.out] [-memprofile mem.out]
//	sim -img prog.img -in0 input.txt -functional
//	    [-profile prof.json] [-trace prog.trc]
//
// With -checkpoint the timed engine parks a durable snapshot of its
// complete state every -checkpoint-every simulated cycles; -restore picks
// the run back up from the newest decodable snapshot (fingerprint-checked
// against the image, inputs, and hints), continuing bit-identically with
// the run that was interrupted — including the fault-injection stream. A
// run that finishes removes its snapshot.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"fgpsim/internal/branch"
	"fgpsim/internal/chaos"
	"fgpsim/internal/core"
	"fgpsim/internal/faultinject"
	"fgpsim/internal/interp"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
	"fgpsim/internal/snapshot"
)

// ckptOpts bundles the checkpoint/restore command line.
type ckptOpts struct {
	path    string // snapshot file ("" = checkpoints off)
	every   int64  // cadence in simulated cycles
	restore bool   // resume from the newest decodable snapshot at path
}

func main() {
	var (
		imgPath    = flag.String("img", "", "image file from cmd/tld (required)")
		in0Path    = flag.String("in0", "", "input stream 0 file")
		in1Path    = flag.String("in1", "", "input stream 1 file")
		outPath    = flag.String("out", "", "write program output to this file (default stdout)")
		showStats  = flag.Bool("stats", true, "print run statistics to stderr")
		functional = flag.Bool("functional", false, "run the untimed interpreter instead of the timed engine")
		profPath   = flag.String("profile", "", "functional mode: write the branch profile here")
		tracePath  = flag.String("trace", "", "functional mode: write the dynamic block trace here")
		useTrace   = flag.String("usetrace", "", "timed mode: trace file for perfect prediction")
		hintsFrom  = flag.String("hintsfrom", "", "timed mode: profile file supplying static prediction hints")
		pipeCycles = flag.Int64("pipe", 0, "timed dynamic mode: print pipeline events for the first N cycles")
		timeout    = flag.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = none)")
		faultSeed  = flag.Uint64("fault-seed", 0, "timed dynamic mode: fault-injection stream seed")
		faultRate  = flag.Float64("fault-rate", 0, "timed dynamic mode: per-cycle fault probability (0 disables)")
		faultArch  = flag.Bool("fault-arch", false, "include unrecoverable architectural-state faults in the injected set")
		ckptPath   = flag.String("checkpoint", "", "timed mode: park durable engine snapshots at this path")
		ckptEvery  = flag.Int64("checkpoint-every", 1_000_000, "simulated cycles between checkpoints (with -checkpoint)")
		restore    = flag.Bool("restore", false, "timed mode: resume from the newest snapshot at -checkpoint before running")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	)
	flag.Parse()
	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sim:", err)
		os.Exit(1)
	}
	err = run(*imgPath, *in0Path, *in1Path, *outPath, *profPath, *tracePath,
		*useTrace, *hintsFrom, *functional, *showStats, *pipeCycles,
		*timeout, *faultSeed, *faultRate, *faultArch,
		ckptOpts{path: *ckptPath, every: *ckptEvery, restore: *restore})
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sim:", err)
		os.Exit(1)
	}
}

// startProfiles starts CPU profiling and/or arms a heap snapshot, returning
// a function that finishes both. Empty paths disable each profile.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // flush dead objects so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func readOptional(path string) ([]byte, error) {
	if path == "" {
		return nil, nil
	}
	return os.ReadFile(path)
}

func run(imgPath, in0Path, in1Path, outPath, profPath, tracePath, useTrace, hintsFrom string, functional, showStats bool, pipeCycles int64,
	timeout time.Duration, faultSeed uint64, faultRate float64, faultArch bool, ckpt ckptOpts) error {
	if imgPath == "" {
		return fmt.Errorf("-img is required")
	}
	if ckpt.path == "" && ckpt.restore {
		return fmt.Errorf("-restore requires -checkpoint")
	}
	if ckpt.path != "" && ckpt.every <= 0 {
		return fmt.Errorf("-checkpoint-every must be positive, got %d", ckpt.every)
	}
	if ckpt.path != "" && functional {
		return fmt.Errorf("-checkpoint applies to timed runs, not -functional")
	}
	img, err := loader.ReadFile(imgPath)
	if err != nil {
		return err
	}
	in0, err := readOptional(in0Path)
	if err != nil {
		return err
	}
	in1, err := readOptional(in1Path)
	if err != nil {
		return err
	}

	var output []byte
	if functional {
		opts := interp.Options{RecordTrace: tracePath != ""}
		if profPath != "" {
			opts.Profile = interp.NewProfile()
		}
		res, err := interp.Run(img.Prog, in0, in1, opts)
		if err != nil {
			return err
		}
		output = res.Output
		if profPath != "" {
			data, err := opts.Profile.Marshal()
			if err != nil {
				return err
			}
			if err := os.WriteFile(profPath, data, 0o644); err != nil {
				return err
			}
		}
		if tracePath != "" {
			if err := os.WriteFile(tracePath, interp.MarshalTrace(res.Trace), 0o644); err != nil {
				return err
			}
		}
		if showStats {
			fmt.Fprintf(os.Stderr, "functional: %d nodes, %d blocks retired\n",
				res.RetiredNodes, res.RetiredBlocks)
		}
	} else {
		var pipe *core.PipeLog
		if pipeCycles > 0 {
			pipe = &core.PipeLog{MaxCycles: pipeCycles}
		}
		var faultOpts *faultinject.Options
		if faultRate > 0 {
			faultOpts = &faultinject.Options{Seed: faultSeed, Rate: faultRate}
			if faultArch {
				faultOpts.Kinds = append(faultinject.DefaultKinds(), faultinject.ArchBit)
			}
		}
		res, inj, err := timedRun(img, in0, in1, useTrace, hintsFrom, pipe, timeout, faultOpts, ckpt)
		if inj != nil {
			for _, ev := range inj.Events() {
				fmt.Fprintf(os.Stderr, "fault: %s\n", ev)
			}
		}
		if err != nil {
			return err
		}
		output = res.Output
		if img.Degraded {
			// The translating loader fell back to single basic blocks
			// because its enlargement file was corrupt; surface that in the
			// run's statistics (exp sweeps count the same way).
			res.Stats.EFDegradations++
		}
		if pipe != nil {
			fmt.Fprint(os.Stderr, pipe.String())
		}
		if showStats {
			fmt.Fprintf(os.Stderr, "configuration: %s\n%s", img.Cfg, res.Stats)
		}
	}

	if outPath != "" {
		return os.WriteFile(outPath, output, 0o644)
	}
	_, err = os.Stdout.Write(output)
	return err
}

func timedRun(img *loader.Image, in0, in1 []byte, useTrace, hintsFrom string, pipe *core.PipeLog,
	timeout time.Duration, faultOpts *faultinject.Options, ckpt ckptOpts) (*core.RunResult, *faultinject.Injector, error) {
	var trace []ir.BlockID
	if useTrace != "" {
		data, err := os.ReadFile(useTrace)
		if err != nil {
			return nil, nil, err
		}
		trace, err = interp.UnmarshalTrace(data)
		if err != nil {
			return nil, nil, err
		}
	}
	hints, err := decodeHints(hintsFrom)
	if err != nil {
		return nil, nil, err
	}

	// Checkpoint arming. Fill-unit images mutate their program at run time
	// and cannot be pinned to a stable fingerprint, so they run unarmed.
	armed := ckpt.path != ""
	if armed && img.Cfg.Branch == machine.FillUnit {
		fmt.Fprintln(os.Stderr, "sim: fill-unit images cannot be snapshotted; running without checkpoints")
		armed = false
	}
	var (
		fp     uint64
		resume *core.EngineState
		inj    *faultinject.Injector
	)
	if armed {
		fp = snapshot.RunFingerprint(img, in0, in1, hints)
		if ckpt.restore {
			switch snap, err := snapshot.ReadLatest(chaos.OS{}, ckpt.path); {
			case err == nil:
				if snap.Fingerprint != fp {
					return nil, nil, fmt.Errorf("snapshot %s is from a different run (image, inputs, or hints changed)", ckpt.path)
				}
				resume = snap.Engine
				if snap.Injector != nil {
					if faultOpts == nil {
						return nil, nil, fmt.Errorf("snapshot %s carries fault-injection state; rerun with the original -fault-rate/-fault-seed", ckpt.path)
					}
					inj = faultinject.Resume(*faultOpts, snap.Injector)
				}
			case errors.Is(err, os.ErrNotExist):
				fmt.Fprintln(os.Stderr, "sim: no snapshot to restore; starting fresh")
			default:
				// Both the snapshot and its .prev rotation are torn or
				// corrupt: the durable ladder is exhausted, start over.
				fmt.Fprintf(os.Stderr, "sim: %v; starting fresh\n", err)
			}
		}
	}
	if inj == nil && faultOpts != nil {
		inj = faultinject.New(*faultOpts)
	}

	lim := core.Limits{Pipe: pipe, Resume: resume}
	if inj != nil {
		lim.Fault = inj.Hook()
	}
	if armed {
		lim.CheckpointEvery = ckpt.every
		lim.Checkpoint = snapshot.Saver(chaos.OS{}, ckpt.path, fp, inj)
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := core.RunContext(ctx, img, in0, in1, trace, hints, lim)
	if err != nil {
		return nil, inj, err
	}
	if armed {
		// A finished run's snapshot must not seed a later -restore.
		snapshot.Remove(chaos.OS{}, ckpt.path)
	}
	return res, inj, nil
}

func decodeHints(path string) (map[ir.BlockID]bool, error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	prof, err := interp.UnmarshalProfile(data)
	if err != nil {
		return nil, err
	}
	return branch.HintsFromProfile(prof.Taken, prof.NotTaken), nil
}
