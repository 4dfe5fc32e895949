package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/doc"
	"repro/internal/filestore"
)

// Warm-start persistence. The PR1 catalog cache and task queue die with
// the process: every reopened system pays a cold full scan on its first
// Catalog()/AskGuided and has to replan incremental extraction. This file
// persists that warm state through the filestore layer (the paper's
// append-only segment store for intermediate structured data): each
// SaveWarmState appends one checksummed snapshot record tagged with the
// cache's invalidation epoch, and LoadWarmState restores the newest
// snapshot that still matches the live database — so Open serves warm
// with zero table scans.
//
// Staleness is decided by two checks, both cheap:
//   - Row-count validation: the snapshot records the extracted table's
//     row count at save time (read O(1) from the entity index); a
//     snapshot whose count disagrees with the live table describes a
//     different table state and is refused.
//   - Invalidation-epoch validation: every cache change or invalidation
//     advances the epoch, and a snapshot older than the live cache's
//     epoch is refused — a save followed by any write cannot be loaded
//     back over the newer state.
//
// A refused snapshot is not an error: the load reports cold and the next
// Catalog() rebuilds by scan, exactly the pre-warm-start behavior.

// warmTask is one serialized pending extraction task. Documents persist
// by title and re-resolve against the corpus at load.
type warmTask struct {
	Attribute string   `json:"attribute"`
	Priority  float64  `json:"priority"`
	Part      int      `json:"part"`
	Docs      []string `json:"docs"`
}

// warmState is one persisted snapshot record.
type warmState struct {
	Epoch int64 `json:"epoch"`
	Rows  int   `json:"rows"`
	// Checksum is the order-independent content hash over every row's
	// (entity, attribute, qualifier) at save time. Row count catches
	// different-size divergence; the checksum catches same-count
	// divergence — a snapshot from a table with the same number of rows
	// but different content is refused.
	Checksum   uint64              `json:"checksum"`
	Entities   []string            `json:"entities"`
	Attributes []string            `json:"attributes"`
	Qualifiers map[string][]string `json:"qualifiers"`
	Queue      []warmTask          `json:"queue"`
	Done       map[string]int      `json:"done"`
	Total      map[string]int      `json:"total"`
}

// warmSegCap sizes the filestore segments backing warm snapshots: they
// are small JSON records, and a tight segment keeps Open from allocating
// the 1 MiB default per load.
const warmSegCap = 64 << 10

// extractedRowCount reads the extracted table's row count from the entity
// index in O(1) — every row carries an entity, so index entries == rows.
func (s *System) extractedRowCount() (int, error) {
	t := s.DB.Table(TableName)
	if t == nil {
		return 0, fmt.Errorf("core: table %s does not exist", TableName)
	}
	idx := t.Indexes["entity"]
	if idx == nil {
		return 0, fmt.Errorf("core: no entity index on %s", TableName)
	}
	return idx.Len(), nil
}

// SaveWarmState appends a snapshot of the catalog cache and the pending
// task queue to the filestore under dir. An invalid cache is rebuilt
// (one scan) first, so the snapshot always describes the live table.
func (s *System) SaveWarmState(dir string) error {
	s.mu.Lock()
	if err := s.ensureCatalogLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	cat := s.cat.snapshot(TableName)
	// The checksum is the cache's own digest, so it always describes the
	// Entities/Attributes being persisted. The load side compares it
	// against the engine-maintained table digest — the two are defined
	// over the same columns by the same function, and a freshly rebuilt
	// cache's hash equals the table's, so a valid snapshot verifies in
	// O(1) while any divergence (cache and table drifting apart between
	// snapshot and save) is refused rather than papered over.
	st := warmState{
		Epoch:      s.cat.epoch,
		Checksum:   s.cat.hash,
		Entities:   cat.Entities,
		Attributes: cat.Attributes,
		Qualifiers: cat.Qualifiers,
		Done:       map[string]int{},
		Total:      map[string]int{},
	}
	for a, n := range s.done {
		st.Done[a] = n
	}
	for a, n := range s.total {
		st.Total[a] = n
	}
	for _, tk := range s.queue.snapshot() {
		wt := warmTask{Attribute: tk.attribute, Priority: tk.priority, Part: tk.part}
		for _, d := range tk.docs {
			wt.Docs = append(wt.Docs, d.Title)
		}
		st.Queue = append(st.Queue, wt)
	}
	// Row count is read under s.mu too (lock order System.mu → rdbms, the
	// same order rebuilds use), so the snapshot can't interleave with a
	// concurrent materialize.
	rows, err := s.extractedRowCount()
	if err != nil {
		s.mu.Unlock()
		return err
	}
	st.Rows = rows
	s.mu.Unlock()

	payload, err := json.Marshal(st)
	if err != nil {
		return err
	}
	store, err := openOrCreateStore(dir)
	if err != nil {
		return err
	}
	if _, err := store.Append(payload); err != nil {
		return err
	}
	if err := store.Persist(dir); err != nil {
		return err
	}
	s.Stats.Inc("core.warmstate.saved", 1)
	return nil
}

func openOrCreateStore(dir string) (*filestore.Store, error) {
	if _, err := os.Stat(dir); err != nil {
		if os.IsNotExist(err) {
			return filestore.New(warmSegCap), nil
		}
		return nil, err
	}
	return filestore.Open(dir, warmSegCap)
}

// LoadWarmState restores the newest valid snapshot from dir, replacing
// the catalog cache and queue state. It returns warm=false (with no
// error) when no snapshot passes the staleness checks — the system then
// stays cold and rebuilds by scan as before. A missing dir is cold, not
// an error.
func (s *System) LoadWarmState(dir string) (bool, error) {
	if _, err := os.Stat(dir); err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, err
	}
	store, err := filestore.Open(dir, warmSegCap)
	if err != nil {
		return false, err
	}
	var best *warmState
	err = store.Scan(func(_ filestore.RecordID, payload []byte) bool {
		var st warmState
		if json.Unmarshal(payload, &st) != nil {
			return true // skip undecodable records, keep scanning
		}
		if best == nil || st.Epoch > best.Epoch {
			best = &st
		}
		return true
	})
	if err != nil {
		return false, err
	}
	if best == nil {
		return false, nil
	}

	// Resolve queue documents against the live corpus before touching any
	// state; an unresolvable title means the snapshot describes another
	// corpus and is stale as a whole. The title map is built only when
	// there is a queue to resolve — the common queue-less load skips it.
	var queue []task
	if len(best.Queue) > 0 {
		byTitle := make(map[string]*doc.Document, s.Corpus.Len())
		for _, d := range s.Corpus.Docs() {
			byTitle[d.Title] = d
		}
		queue = make([]task, 0, len(best.Queue))
		for _, wt := range best.Queue {
			tk := task{attribute: wt.Attribute, priority: wt.Priority, part: wt.Part}
			for _, title := range wt.Docs {
				d, ok := byTitle[title]
				if !ok {
					s.Stats.Inc("core.warmstate.stale", 1)
					return false, nil
				}
				tk.docs = append(tk.docs, d)
			}
			queue = append(queue, tk)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cat.epoch > best.Epoch {
		// The live cache has been invalidated or written past the save
		// point; the snapshot is from an older life of the table.
		s.Stats.Inc("core.warmstate.stale", 1)
		return false, nil
	}
	rows, err := s.extractedRowCount()
	if err != nil {
		return false, err
	}
	if best.Rows != rows {
		s.Stats.Inc("core.warmstate.stale", 1)
		return false, nil
	}
	// Content validation: the snapshot's checksum must match the live
	// table's (entity, attribute, qualifier) multiset hash, so a snapshot
	// from a same-size-but-different table is refused. The engine
	// maintains that digest incrementally as table metadata (persisted
	// through checkpoints, adjusted by crash recovery), so even a fresh
	// process verifies in O(1) — no rebuild scan. The scan fallback below
	// only runs when content hashing is not enabled on the table.
	if h, ok := s.DB.ContentHash(TableName); ok {
		if h != best.Checksum {
			s.Stats.Inc("core.warmstate.stale", 1)
			return false, nil
		}
		s.Stats.Inc("core.warmstate.o1verify", 1)
	} else {
		if err := s.ensureCatalogLocked(); err != nil {
			return false, err
		}
		if s.cat.hash != best.Checksum {
			s.Stats.Inc("core.warmstate.stale", 1)
			return false, nil
		}
	}
	s.cat.installWarm(best.Entities, best.Attributes, best.Qualifiers, best.Epoch, best.Checksum)
	// The install replaced the cache's reformulator feed; any published
	// catalog snapshot is now a discarded generation.
	s.dropCatSnapLocked()
	s.queue = taskQueue{}
	for _, tk := range queue {
		s.queue.push(tk)
	}
	s.done = map[string]int{}
	for a, n := range best.Done {
		s.done[a] = n
	}
	s.total = map[string]int{}
	for a, n := range best.Total {
		s.total[a] = n
	}
	s.Stats.Inc("core.warmstate.loaded", 1)
	return true, nil
}

// OpenReport describes what OpenDir found on disk.
type OpenReport struct {
	// Reopened is true when the on-disk database already held extracted
	// rows: the database recovered from its files and setup was skipped.
	Reopened bool
	// Warm is true when a warm snapshot passed validation, so the catalog
	// cache and task queue resumed without a cold rebuild.
	Warm bool
}

// OpenDir is the single-root disk lifecycle: the crash-safe database
// lives in dir/db and warm snapshots in dir/warm, so the extracted
// structure and the caches over it reopen from the same place. On a
// fresh directory it runs setup to generate the structure; on an
// existing one the database recovers from disk, setup is skipped, and
// warm state restores on top of the recovered table. Close the returned
// System to checkpoint the database and save a fresh warm snapshot.
func OpenDir(dir string, cfg Config, setup func(*System) error) (*System, OpenReport, error) {
	cfg.Dir = filepath.Join(dir, "db")
	s, err := New(cfg)
	if err != nil {
		return nil, OpenReport{}, err
	}
	// On any later failure, release the database files (and the directory
	// lock they hold) before reporting the error; best effort, since the
	// failure may have left active state Close cannot checkpoint.
	fail := func(rep OpenReport, err error) (*System, OpenReport, error) {
		s.DB.Close()
		return nil, rep, err
	}
	rows, err := s.extractedRowCount()
	if err != nil {
		return fail(OpenReport{}, err)
	}
	rep := OpenReport{Reopened: rows > 0}
	if !rep.Reopened && setup != nil {
		if err := setup(s); err != nil {
			return fail(rep, err)
		}
	}
	s.warmDir = filepath.Join(dir, "warm")
	rep.Warm, err = s.LoadWarmState(s.warmDir)
	if err != nil {
		return fail(rep, err)
	}
	return s, rep, nil
}

// Close persists what the next life needs and releases the storage: a
// warm snapshot is saved (when this System was opened via OpenDir) and a
// disk-backed database is checkpointed and closed, after which OpenDir
// on the same root reopens both. In-memory systems close to a no-op.
//
// Close is idempotent and safe under concurrent callers: the first caller
// flips the system into closing (new operations get ErrClosed), drains
// in-flight operations, then tears down; every other caller — concurrent
// or later — waits for that teardown and returns its result. This is the
// drain primitive the network server's graceful shutdown stands on.
func (s *System) Close() error {
	s.lifeMu.Lock()
	if s.closing {
		// Another Close won; wait for it and share its verdict.
		done := s.closeDone
		s.lifeMu.Unlock()
		<-done
		return s.closeErr
	}
	s.closing = true
	s.closeDone = make(chan struct{})
	for s.inflight > 0 {
		s.lifeCond.Wait()
	}
	done := s.closeDone
	s.lifeMu.Unlock()

	var err error
	if s.warmDir != "" {
		err = s.SaveWarmState(s.warmDir)
	}
	if s.diskBacked {
		if cerr := s.DB.Close(); err == nil {
			err = cerr
		}
	}
	s.lifeMu.Lock()
	s.closeErr = err
	s.lifeMu.Unlock()
	close(done)
	return err
}

// Checkpoint forces everything committed so far into the data pages and
// truncates the WAL — without stalling concurrent work. The engine's
// checkpoints are fuzzy (PR5): they run while guided-query writers,
// CorrectValue, and extraction transactions keep committing, so a
// long-running System can bound its log growth and tighten its
// crash-recovery window on a timer or after large ingests, with no
// quiesce coordination. (Close still checkpoints; this makes the same
// durability available mid-flight.)
func (s *System) Checkpoint() error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.endOp()
	return s.DB.Checkpoint()
}

// ExtractedRows returns the number of rows in the extracted table, read
// O(1) from the entity index (diagnostics, CLI, and reopen detection).
func (s *System) ExtractedRows() (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	defer s.endOp()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.extractedRowCount()
}

// EngineStats bundles the storage-engine health counters the serving
// layer reports (PR9: the server reads these through its Backend
// interface instead of reaching into System.DB, so a sharded backend
// can aggregate them across engines).
type EngineStats struct {
	Checkpoints    int64
	WALSyncs       int64
	IndexesLoaded  int
	IndexesRebuilt int

	// Buffer-pool vitals (PR10): raw counters so a sharded backend can
	// sum them; hit rate is derived at the reporting edge.
	BufferHits       int64
	BufferMisses     int64
	BufferEvictions  int64
	BufferScanBypass int64
	BufferCapacity   int // frames (summed across shards when aggregated)
	BufferResident   int
}

// EngineStats returns the engine's current health counters.
func (s *System) EngineStats() EngineStats {
	os := s.DB.LastOpenStats()
	bs := s.DB.BufferStats()
	return EngineStats{
		Checkpoints:      s.DB.Checkpoints(),
		WALSyncs:         s.DB.WALSyncs(),
		IndexesLoaded:    os.IndexesLoaded,
		IndexesRebuilt:   os.IndexesRebuilt,
		BufferHits:       bs.Hits,
		BufferMisses:     bs.Misses,
		BufferEvictions:  bs.Evictions,
		BufferScanBypass: bs.ScanBypass,
		BufferCapacity:   bs.Capacity,
		BufferResident:   bs.Resident,
	}
}

// WarmEpoch returns the catalog cache's current invalidation epoch
// (diagnostics and tests).
func (s *System) WarmEpoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cat.epoch
}

// PendingByAttribute returns the number of pending tasks per attribute,
// sorted by attribute name (diagnostics and warm-start tests).
func (s *System) PendingByAttribute() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for _, tk := range s.queue.snapshot() {
		out[tk.attribute]++
	}
	return out
}
