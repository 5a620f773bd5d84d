package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as the subprocess helper: when SIMD_MAIN_HELPER is set
// the test binary behaves exactly like the simd binary (realMain over the
// remaining arguments), so exit-code tests need no separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("SIMD_MAIN_HELPER") == "1" {
		os.Exit(realMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring; "" = valid
	}{
		{"defaults", nil, ""},
		{"full checkpoint config", []string{"-journal", "/tmp/j", "-checkpoint-every", "100000", "-scrub-interval", "30s"}, ""},
		{"checkpoints without preemption", []string{"-journal", "/tmp/j", "-checkpoint-every", "100000"}, ""},
		{"empty addr", []string{"-addr", ""}, "-addr"},
		{"checkpoint without journal", []string{"-checkpoint-every", "100000"}, "-checkpoint-every requires -journal"},
		{"negative checkpoint", []string{"-journal", "/tmp/j", "-checkpoint-every", "-5"}, "-checkpoint-every must be >= 0"},
		{"negative stall", []string{"-watchdog-stall", "-1s"}, "-watchdog-stall must be >= 0"},
		{"negative drain", []string{"-drain-timeout", "-1s"}, "-drain-timeout must be >= 0"},
		{"coordinator role", []string{"-coordinator", "-journal", "/tmp/j", "-checkpoint-every", "100000"}, ""},
		{"worker role", []string{"-worker", "http://coord:8080", "-worker-id", "w1", "-heartbeat", "500ms"}, ""},
		{"both roles", []string{"-coordinator", "-worker", "http://coord:8080"}, "exclusive"},
		{"worker-id without worker", []string{"-worker-id", "w1"}, "-worker-id requires -worker"},
		{"zero heartbeat", []string{"-worker", "http://coord:8080", "-heartbeat", "0s"}, "-heartbeat must be > 0"},
		{"zero dead-after", []string{"-coordinator", "-worker-dead-after", "0s"}, "must be > 0"},
		{"worker with checkpoint flag", []string{"-worker", "http://coord:8080", "-journal", "/tmp/j", "-checkpoint-every", "1000"}, "cadence from the coordinator"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("simd", flag.ContinueOnError)
			o := registerFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse: %v", err)
			}
			err := o.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestServerConfigMapping(t *testing.T) {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	o := registerFlags(fs)
	args := []string{
		"-journal", "/tmp/j", "-queue", "7", "-concurrency", "3",
		"-checkpoint-every", "250000", "-watchdog-stall", "45s",
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg := o.serverConfig()
	if cfg.JournalDir != "/tmp/j" || cfg.QueueDepth != 7 || cfg.Concurrency != 3 {
		t.Errorf("admission config not mapped: %+v", cfg)
	}
	if cfg.CheckpointEvery != 250000 {
		t.Errorf("checkpoint config not mapped: every=%d", cfg.CheckpointEvery)
	}
	if cfg.WatchdogStall != 45*time.Second {
		t.Errorf("WatchdogStall = %s, want 45s", cfg.WatchdogStall)
	}
}

func TestServerConfigFabricMapping(t *testing.T) {
	fs := flag.NewFlagSet("simd", flag.ContinueOnError)
	o := registerFlags(fs)
	if err := fs.Parse([]string{"-coordinator", "-worker-dead-after", "4s", "-steal-after", "2s"}); err != nil {
		t.Fatal(err)
	}
	cfg := o.serverConfig()
	if !cfg.Coordinator || cfg.WorkerDeadAfter != 4*time.Second || cfg.StealAfter != 2*time.Second {
		t.Errorf("fabric config not mapped: %+v", cfg)
	}
}

// helperExit re-executes the test binary as simd and returns its exit code.
func helperExit(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SIMD_MAIN_HELPER=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running helper: %v\n%s", err, out)
	}
	return ee.ExitCode(), string(out)
}

func TestExitCodes(t *testing.T) {
	// A journal path that is a regular file passes flag validation but
	// fails server startup: runtime failure, exit 1.
	badJournal := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(badJournal, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown flag", []string{"-no-such-flag"}, 2},
		{"bad flag combo", []string{"-checkpoint-every", "1000"}, 2},
		{"bad duration syntax", []string{"-drain-timeout", "soonish"}, 2},
		{"journal is a file", []string{"-addr", "127.0.0.1:0", "-journal", badJournal}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out := helperExit(t, tc.args...)
			if code != tc.want {
				t.Fatalf("exit = %d, want %d; output:\n%s", code, tc.want, out)
			}
			if tc.want == 1 && !strings.Contains(out, "simd:") {
				t.Errorf("runtime failure did not report an error: %q", out)
			}
		})
	}
}
