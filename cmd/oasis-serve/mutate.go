package main

import (
	"errors"
	"fmt"
	"log"
	"net/http"

	"repro/internal/engine"
)

// insertRequest is the JSON body of POST /insert.
type insertRequest struct {
	// ID is the new sequence's identifier; it must be unique among live
	// sequences (re-using a deleted ID is allowed).
	ID string `json:"id"`
	// Sequence is the residue string (protein or DNA letters, matching the
	// server's database alphabet).
	Sequence string `json:"sequence"`
}

// deleteRequest is the JSON body of POST /delete.
type deleteRequest struct {
	// ID names the live sequence to tombstone.
	ID string `json:"id"`
}

// mutateResponse answers every mutation endpoint: the index generation the
// write produced (searches from then on see the change; result-cache entries
// of older generations become unreachable) and the mutable-layer occupancy,
// so ingest pipelines can decide when to POST /compact.
type mutateResponse struct {
	Status string `json:"status"`
	ID     string `json:"id,omitempty"`
	// Generation is the index generation after the operation.
	Generation uint64 `json:"generation"`
	// MemtableSequences counts inserts not yet compacted; Tombstones counts
	// deleted sequences, which stay physically present.
	MemtableSequences int `json:"memtable_sequences"`
	Tombstones        int `json:"tombstones"`
	// Compacted marks a /compact response that actually sealed state (false
	// when there was nothing to do).
	Compacted bool `json:"compacted,omitempty"`
}

// mutationAllowed rejects writes while the server drains: a write admitted
// during shutdown could bump the generation after in-flight streams pinned
// theirs, which is safe but pointless — the process is about to exit and
// disk-backed inserts would be lost without a final compaction anyway.
func (s *server) mutationAllowed(w http.ResponseWriter) bool {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("server is draining"))
		return false
	}
	return true
}

// handleInsert grows the served corpus by one sequence; the sequence is
// searchable as soon as the response is written.  With -compact-after N, a
// background compaction is triggered once the memtable holds N sequences.
func (s *server) handleInsert(w http.ResponseWriter, r *http.Request) {
	if !s.mutationAllowed(w) {
		return
	}
	var req insertRequest
	if !decodeBody(w, r, maxMutateBody, &req) {
		return
	}
	if req.ID == "" || req.Sequence == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("insert needs both id and sequence"))
		return
	}
	residues, err := s.eng.Alphabet().Encode(req.Sequence)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	gen, err := s.eng.Insert(req.ID, residues)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	mm := s.eng.Mutable()
	writeJSON(w, http.StatusOK, mutateResponse{
		Status: "ok", ID: req.ID, Generation: gen,
		MemtableSequences: mm.MemtableSequences, Tombstones: mm.Tombstones,
	})
	s.maybeCompact(mm.MemtableSequences)
}

// handleDelete tombstones one live sequence; subsequent searches filter it
// out (and terminate their all-sequences early stop at the shrunken live
// count).  The tombstone is persisted at the next compaction.
func (s *server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.mutationAllowed(w) {
		return
	}
	var req deleteRequest
	if !decodeBody(w, r, maxMutateBody, &req) {
		return
	}
	if req.ID == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("delete needs an id"))
		return
	}
	gen, err := s.eng.Delete(req.ID)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	mm := s.eng.Mutable()
	writeJSON(w, http.StatusOK, mutateResponse{
		Status: "ok", ID: req.ID, Generation: gen,
		MemtableSequences: mm.MemtableSequences, Tombstones: mm.Tombstones,
	})
}

// handleCompact seals the memtable as a layer synchronously (see
// Engine.Compact); ingest pipelines call it after a bulk load, and
// -compact-after triggers the same operation automatically in the
// background.
func (s *server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !s.mutationAllowed(w) {
		return
	}
	before := s.eng.Generation()
	gen, err := s.eng.Compact()
	if err != nil {
		// An engine that cannot write (a coordinator) is the caller's
		// mistake, as on /insert and /delete; any other failure is ours.
		code := http.StatusInternalServerError
		if errors.Is(err, engine.ErrImmutable) {
			code = http.StatusBadRequest
		}
		httpError(w, code, err)
		return
	}
	mm := s.eng.Mutable()
	writeJSON(w, http.StatusOK, mutateResponse{
		Status: "ok", Generation: gen, Compacted: gen != before,
		MemtableSequences: mm.MemtableSequences, Tombstones: mm.Tombstones,
	})
}

// maybeCompact starts one background compaction when the memtable has grown
// past the -compact-after threshold.  compacting is a single-flight latch so
// a burst of inserts triggers one compaction, not one per insert.
func (s *server) maybeCompact(memtableSeqs int) {
	if s.cfg.compactAfter <= 0 || memtableSeqs < s.cfg.compactAfter {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.compacting.Store(false)
		gen, err := s.eng.Compact()
		if err != nil {
			log.Printf("background compaction failed (still serving from memory): %v", err)
			return
		}
		log.Printf("background compaction done: generation %d", gen)
	}()
}
