package server

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fgpsim/internal/exp"
	"fgpsim/internal/snapshot"
)

// The background scrubber (DESIGN.md §17): a low-priority loop that
// re-walks everything the server has parked on disk — cell journals and
// mid-run snapshots — verifying CRC frames and record digests at rest,
// long before a crash-recovery or a resume would trip over them.
//
// The two artifact classes get different treatment because they carry
// different stakes:
//
//   - Snapshots are resume hints. A corrupt primary is repaired from its
//     .prev rotation (snapshot.ScrubFile); when neither copy decodes,
//     both are renamed *.quarantined so the read ladder falls through to
//     an older shipped copy or a cycle-0 restart. Losing one costs
//     checkpoint progress, never correctness.
//   - Cell journals are the record of truth. The scrubber only DETECTS
//     here (exp.ScrubJournal): a journal is append-only and live —
//     rewriting it under a concurrent appender would risk the very
//     corruption the scrubber exists to catch. A bad record is counted
//     (scrub_corrupt_records, an operator page) and logged; the merge
//     path's own digest verification skips it at read time, and the
//     cell re-serves from a peer on the next recovery.

// scrubLoop runs until scrubStop closes, scrubbing every ScrubInterval.
// Caller has done s.wg.Add(1).
func (s *Server) scrubLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.scrubStop:
			return
		case <-t.C:
			s.scrubPass()
		}
	}
}

// scrubPass walks the journal directory and every snapshot directory once.
func (s *Server) scrubPass() {
	disk := s.cfg.disk()

	// Cell journals: detection only.
	journals, _ := filepath.Glob(filepath.Join(s.cfg.JournalDir, "sweep-*.cells"))
	for _, p := range journals {
		_, bad, err := exp.ScrubJournal(disk, p)
		if err != nil {
			continue // unreadable this pass; the next one retries
		}
		for _, ie := range bad {
			fmt.Fprintf(os.Stderr, "server: scrub: %v\n", ie)
		}
		s.met.scrubCorruptRecords.Add(int64(len(bad)))
	}

	// Snapshots: repair from .prev, quarantine what cannot be repaired.
	// Both the /run-path snapshot dir and the coordinator's shipped-copy
	// dir are covered; globbing *.snap leaves .prev rotations and already-
	// quarantined files alone (ScrubFile handles each primary's .prev).
	dirs := []string{s.snapshotDir(), filepath.Join(s.cfg.JournalDir, "fabric-snapshots")}
	for _, dir := range dirs {
		snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
		for _, p := range snaps {
			outcome, err := snapshot.ScrubFile(disk, p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "server: scrub: %v\n", err)
			}
			switch outcome {
			case snapshot.ScrubRepaired:
				s.met.scrubRepaired.Add(1)
			case snapshot.ScrubQuarantined:
				s.met.scrubQuarantined.Add(1)
			}
		}
	}
	s.met.scrubPasses.Add(1)
}
