package rdbms

import (
	"encoding/binary"
	"fmt"
	"sync"
)

// HeapFile is an unordered collection of tuples stored in a chain of
// slotted pages. All page access goes through the buffer pool. A HeapFile
// serializes its own structural mutations with a write lock;
// transaction-level isolation is provided above it by the lock manager.
// Reads (Get and every scan) take the read side per page visit: readers
// run concurrently with each other and exclude only in-progress byte
// mutations, which row locks alone do not (a slotted-page header is
// shared by every row on the page).
type HeapFile struct {
	mu    sync.RWMutex
	bp    *BufferPool
	first PageID
	pages []PageID // cached chain order
}

// CreateHeapFile allocates the first page of a new heap.
func CreateHeapFile(bp *BufferPool) (*HeapFile, error) {
	id, data, err := bp.NewPage()
	if err != nil {
		return nil, err
	}
	p := newSlottedPage(data)
	p.setNext(InvalidPage)
	bp.Unpin(id, true)
	return &HeapFile{bp: bp, first: id, pages: []PageID{id}}, nil
}

// OpenHeapFile reconstructs a heap from its first page by walking the
// chain. The walk tolerates crash artifacts at the tail: a next pointer
// to a page that never became durable (beyond the allocated range), or a
// next of 0 — the link field of a page whose own contents were lost
// reads as zero, and no chain ever links *to* page 0 (links always
// target later allocations, and under a DB page 0 is the catalog). Both
// terminate the chain; any rows on such pages are covered by WAL
// records, and recovery re-adopts the pages it replays onto.
func OpenHeapFile(bp *BufferPool, first PageID) (*HeapFile, error) {
	h := &HeapFile{bp: bp, first: first}
	id := first
	for id != InvalidPage && (id != 0 || len(h.pages) == 0) && id < bp.NumPages() {
		// One-touch chain walk: scan-hinted so opening a large heap does
		// not displace the hot working set.
		data, err := bp.PinScan(id)
		if err != nil {
			return nil, err
		}
		p := newSlottedPage(data)
		next := p.next()
		bp.Unpin(id, false)
		h.pages = append(h.pages, id)
		id = next
		if len(h.pages) > 1<<24 {
			return nil, fmt.Errorf("rdbms: heap chain cycle at page %d", id)
		}
	}
	return h, nil
}

// FirstPage returns the head page id (stored in the catalog).
func (h *HeapFile) FirstPage() PageID { return h.first }

// Insert stores a tuple and returns its RID.
func (h *HeapFile) Insert(t Tuple) (RID, error) { return h.InsertWith(t, nil) }

// InsertWith stores a tuple and, while the target page is still pinned,
// invokes onApply with the new RID. Pinned pages cannot be evicted, so a
// WAL append performed in onApply is guaranteed to precede any flush of
// the modified page (the write-ahead rule). onApply returns the LSN of
// the record it logged, which is stamped into the page header (the page
// LSN recovery's redo gating compares against); return 0 for unlogged
// mutations.
func (h *HeapFile) InsertWith(t Tuple, onApply func(RID) LSN) (RID, error) {
	return h.InsertWhere(t, nil, onApply)
}

// InsertWhere is InsertWith with a slot admission filter: a non-nil
// slotOK vetoes candidate slots (tombstone reuse and fresh slots alike).
// The transaction layer uses it to skip tombstoned slots whose row lock
// is still held by a concurrent deleting transaction — reusing such a
// slot would collide with that transaction's abort, which restores its
// row at the same RID.
func (h *HeapFile) InsertWhere(t Tuple, slotOK func(RID) bool, onApply func(RID) LSN) (RID, error) {
	rec := EncodeTuple(t)
	if len(rec)+slotSize > PageSize-pageHeaderSize {
		return RID{}, fmt.Errorf("rdbms: tuple of %d bytes exceeds page capacity", len(rec))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	// Try the last page first (append-mostly workloads), then scan.
	order := make([]PageID, 0, len(h.pages))
	if n := len(h.pages); n > 0 {
		order = append(order, h.pages[n-1])
		order = append(order, h.pages[:n-1]...)
	}
	for _, id := range order {
		data, err := h.bp.Pin(id)
		if err != nil {
			return RID{}, err
		}
		var pageOK func(uint16) bool
		if slotOK != nil {
			id := id
			pageOK = func(slot uint16) bool { return slotOK(RID{Page: id, Slot: slot}) }
		}
		p := newSlottedPage(data)
		if slot, ok := p.insert(rec, pageOK); ok {
			rid := RID{Page: id, Slot: slot}
			if onApply != nil {
				if lsn := onApply(rid); lsn != 0 {
					p.setPageLSN(lsn)
				}
			}
			h.bp.Unpin(id, true)
			return rid, nil
		}
		h.bp.Unpin(id, false)
	}
	// Need a new page linked to the tail.
	id, data, err := h.bp.NewPage()
	if err != nil {
		return RID{}, err
	}
	p := newSlottedPage(data)
	p.setNext(InvalidPage)
	slot, ok := p.insert(rec, nil)
	if !ok {
		h.bp.Unpin(id, true)
		return RID{}, fmt.Errorf("rdbms: tuple does not fit in a fresh page")
	}
	rid := RID{Page: id, Slot: slot}
	if onApply != nil {
		if lsn := onApply(rid); lsn != 0 {
			p.setPageLSN(lsn)
		}
	}
	h.bp.Unpin(id, true)
	// Link previous tail to the new page.
	tail := h.pages[len(h.pages)-1]
	tdata, err := h.bp.Pin(tail)
	if err != nil {
		return RID{}, err
	}
	newSlottedPage(tdata).setNext(id)
	h.bp.Unpin(tail, true)
	h.pages = append(h.pages, id)
	return rid, nil
}

// Contains reports whether page id is part of this heap's chain.
func (h *HeapFile) Contains(id PageID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.pages {
		if p == id {
			return true
		}
	}
	return false
}

// Adopt links an already-allocated page into the heap chain. Recovery uses
// this for pages that were allocated before a crash but whose chain link
// never reached disk. The page is (re)initialized if blank.
func (h *HeapFile) Adopt(id PageID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range h.pages {
		if p == id {
			return nil
		}
	}
	data, err := h.bp.Pin(id)
	if err != nil {
		return err
	}
	p := newSlottedPage(data)
	p.setNext(InvalidPage)
	h.bp.Unpin(id, true)
	tail := h.pages[len(h.pages)-1]
	tdata, err := h.bp.Pin(tail)
	if err != nil {
		return err
	}
	newSlottedPage(tdata).setNext(id)
	h.bp.Unpin(tail, true)
	h.pages = append(h.pages, id)
	return nil
}

// InsertAt re-inserts a tuple at a specific RID if that slot is free; used
// by abort to restore rows idempotently. If the exact slot cannot be
// honoured (already occupied by live data) it returns an error.
func (h *HeapFile) InsertAt(rid RID, t Tuple) error { return h.InsertAtWith(rid, t, nil) }

// InsertAtWith is InsertAt with an onApply hook invoked while the page is
// pinned (see InsertWith for the write-ahead rationale and the page-LSN
// stamping contract).
func (h *HeapFile) InsertAtWith(rid RID, t Tuple, onApply func() LSN) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	rec := EncodeTuple(t)
	data, err := h.bp.Pin(rid.Page)
	if err != nil {
		return err
	}
	defer h.bp.Unpin(rid.Page, true)
	p := newSlottedPage(data)
	if rid.Slot < p.numSlots() {
		if _, live := p.read(rid.Slot); live {
			return fmt.Errorf("rdbms: InsertAt %v: slot occupied", rid)
		}
	}
	if err := setSlotContent(p, rid.Slot, SlotContent{Live: true, Tup: t}, rec); err != nil {
		return fmt.Errorf("rdbms: InsertAt %v: %w", rid, err)
	}
	if onApply != nil {
		if lsn := onApply(); lsn != 0 {
			p.setPageLSN(lsn)
		}
	}
	return nil
}

// SlotContent is the target state of one slot for RedoSlot / ForceSlot.
type SlotContent struct {
	Live bool
	Tup  Tuple
}

// setSlotContent forces slot s of p to exactly sc: dead slots are
// tombstoned (extending the slot array if s is beyond it), live contents
// are placed slot-pinned — rows never move to another RID — compacting
// the page as needed. rec may carry sc.Tup pre-encoded (nil to encode
// here).
func setSlotContent(p *slottedPage, s uint16, sc SlotContent, rec []byte) error {
	for p.numSlots() <= s {
		if p.freeSpace() < slotSize && !p.compactFor(slotSize) {
			return fmt.Errorf("no slot space")
		}
		n := p.numSlots()
		p.setSlot(n, 0, tombstoneLen)
		p.setNumSlots(n + 1)
	}
	p.setSlot(s, 0, tombstoneLen)
	if !sc.Live {
		return nil
	}
	if rec == nil {
		rec = EncodeTuple(sc.Tup)
	}
	if p.freeSpace() < len(rec) && !p.compactFor(len(rec)) {
		return fmt.Errorf("no space for %d bytes", len(rec))
	}
	newStart := p.freeStart() - uint16(len(rec))
	copy(p.data[newStart:], rec)
	p.setFreeStart(newStart)
	p.setSlot(s, newStart, uint16(len(rec)))
	return nil
}

// RedoSlot applies one logged mutation's outcome to a page iff the page
// has not seen it: the record is applied only when pageLSN < lsn, and the
// page is then stamped with lsn. Because mutations stamp the page in log
// order, pageLSN >= lsn means the page already reflects this record (and
// possibly later ones) — skipping it is what makes physical redo
// idempotent: replaying the same WAL tail twice over recovered pages is a
// no-op. Returns whether the record was applied.
func (h *HeapFile) RedoSlot(rid RID, sc SlotContent, lsn LSN) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, err := h.bp.Pin(rid.Page)
	if err != nil {
		return false, err
	}
	p := newSlottedPage(data)
	if p.pageLSN() >= lsn {
		h.bp.Unpin(rid.Page, false)
		return false, nil
	}
	if err := setSlotContent(p, rid.Slot, sc, nil); err != nil {
		h.bp.Unpin(rid.Page, true)
		return false, fmt.Errorf("rdbms: redo %v: %w", rid, err)
	}
	p.setPageLSN(lsn)
	h.bp.Unpin(rid.Page, true)
	return true, nil
}

// ForceSlot sets a slot's content unconditionally, stamping the page with
// lsn. Recovery's undo pass uses it to roll loser transactions back to
// their before-images: "set slot to X" is state-idempotent, so re-running
// undo after a crash during recovery converges to the same pages.
func (h *HeapFile) ForceSlot(rid RID, sc SlotContent, lsn LSN) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, err := h.bp.Pin(rid.Page)
	if err != nil {
		return err
	}
	defer h.bp.Unpin(rid.Page, true)
	p := newSlottedPage(data)
	if err := setSlotContent(p, rid.Slot, sc, nil); err != nil {
		return fmt.Errorf("rdbms: undo %v: %w", rid, err)
	}
	p.setPageLSN(lsn)
	return nil
}

// Get reads the tuple at rid; ok is false for deleted or absent rows. It
// holds the heap's read latch for the page visit: a row lock covers the
// row's bytes but not the slotted-page header, which a concurrent insert
// into the same page rewrites.
func (h *HeapFile) Get(rid RID) (Tuple, bool, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	data, err := h.bp.Pin(rid.Page)
	if err != nil {
		return nil, false, err
	}
	defer h.bp.Unpin(rid.Page, false)
	p := newSlottedPage(data)
	rec, ok := p.read(rid.Slot)
	if !ok {
		return nil, false, nil
	}
	t, err := DecodeTuple(rec)
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// heapRow is one live row of a decoded page.
type heapRow struct {
	rid RID
	t   Tuple
}

// decodePage appends the live rows of page id to rows, decoding only the
// columns in cols (see decodeTupleCols). Every tuple is carved from one
// per-page slab that is never reused, so callers may keep them. When cols
// marks no column, the records are only validated and the page's rows
// share one zero tuple.
func decodePage(id PageID, p *slottedPage, cols colSet, rows []heapRow) ([]heapRow, error) {
	n := p.numSlots()
	first := len(rows)
	if cols.none() {
		var zero Tuple
		for s := uint16(0); s < n; s++ {
			if rec, ok := p.read(s); ok {
				arity, err := tupleArity(rec)
				if err != nil {
					return rows, err
				}
				if arity > len(zero) {
					zero = make(Tuple, arity)
				}
				rows = append(rows, heapRow{RID{Page: id, Slot: s}, zero[:arity:arity]})
			}
		}
		return rows, nil
	}
	live, arity := 0, 0
	for s := uint16(0); s < n; s++ {
		if rec, ok := p.read(s); ok {
			if live == 0 && len(rec) >= 4 {
				// Each value takes at least one byte, which bounds a
				// garbage arity by the record's length.
				arity = min(int(binary.LittleEndian.Uint32(rec[:4])), len(rec)-4)
			}
			live++
		}
	}
	slab := make([]Value, 0, live*arity)
	for s := uint16(0); s < n; s++ {
		rec, ok := p.read(s)
		if !ok {
			continue
		}
		var prev Tuple
		if len(rows) > first {
			prev = rows[len(rows)-1].t
		}
		start := len(slab)
		var err error
		if slab, err = decodeTupleCols(slab, rec, cols, prev); err != nil {
			return rows, err
		}
		rows = append(rows, heapRow{RID{Page: id, Slot: s}, slab[start:len(slab):len(slab)]})
	}
	return rows, nil
}

// readPage decodes one page's live rows (see decodePage) under the read
// latch, which excludes concurrent byte mutations for the page visit only.
func (h *HeapFile) readPage(id PageID, cols colSet, rows []heapRow) ([]heapRow, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	// Scan-hinted pin: a full sweep recycles one probationary frame per
	// page instead of flushing the protected working set.
	data, err := h.bp.PinScan(id)
	if err != nil {
		return rows, err
	}
	defer h.bp.Unpin(id, false)
	return decodePage(id, newSlottedPage(data), cols, rows)
}

// scanPages is the page loop every heap scan shares: it decodes each
// page of the chain in order and hands its live rows to fn as one batch,
// outside the latch, so writers interleave between pages. fn must not
// keep the rows slice (it is reused), only the tuples in it. Returning
// false stops the scan.
func (h *HeapFile) scanPages(cols colSet, fn func(id PageID, rows []heapRow) bool) error {
	h.mu.RLock()
	pages := append([]PageID(nil), h.pages...)
	h.mu.RUnlock()
	var rows []heapRow
	for _, id := range pages {
		var err error
		if rows, err = h.readPage(id, cols, rows[:0]); err != nil {
			return err
		}
		if !fn(id, rows) {
			return nil
		}
	}
	return nil
}

// Delete tombstones the tuple at rid.
func (h *HeapFile) Delete(rid RID) (bool, error) { return h.DeleteWith(rid, nil) }

// DeleteWith tombstones the tuple at rid, invoking onApply while the page
// is pinned (see InsertWith for the write-ahead rationale and the
// page-LSN stamping contract).
func (h *HeapFile) DeleteWith(rid RID, onApply func() LSN) (bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, err := h.bp.Pin(rid.Page)
	if err != nil {
		return false, err
	}
	defer h.bp.Unpin(rid.Page, true)
	p := newSlottedPage(data)
	ok := p.del(rid.Slot)
	if ok && onApply != nil {
		if lsn := onApply(); lsn != 0 {
			p.setPageLSN(lsn)
		}
	}
	return ok, nil
}

// Update replaces the tuple at rid in place. If the new tuple no longer
// fits in the page, Update deletes the old row and inserts elsewhere,
// returning the (possibly new) RID.
func (h *HeapFile) Update(rid RID, t Tuple) (RID, error) {
	newRID, ok, err := h.TryUpdateInPlace(rid, t, nil)
	if err != nil {
		return RID{}, err
	}
	if ok {
		return newRID, nil
	}
	if deleted, err := h.Delete(rid); err != nil || !deleted {
		return RID{}, fmt.Errorf("rdbms: update of missing row %v (err=%v)", rid, err)
	}
	return h.Insert(t)
}

// TryUpdateInPlace replaces the tuple at rid if the new encoding fits in
// its page, invoking onApply while the page is pinned. ok is false when the
// tuple must move (caller performs delete+insert, each separately logged).
func (h *HeapFile) TryUpdateInPlace(rid RID, t Tuple, onApply func(RID) LSN) (RID, bool, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	rec := EncodeTuple(t)
	data, err := h.bp.Pin(rid.Page)
	if err != nil {
		return RID{}, false, err
	}
	p := newSlottedPage(data)
	if p.update(rid.Slot, rec) {
		if onApply != nil {
			if lsn := onApply(rid); lsn != 0 {
				p.setPageLSN(lsn)
			}
		}
		h.bp.Unpin(rid.Page, true)
		return rid, true, nil
	}
	_, live := p.read(rid.Slot)
	h.bp.Unpin(rid.Page, false)
	if !live {
		return RID{}, false, fmt.Errorf("rdbms: update of missing row %v", rid)
	}
	return RID{}, false, nil
}

// Scan calls fn for every live tuple in page-chain order, holding the
// read latch per page visit (not while fn runs). Tuples are fully decoded
// and fn may keep them. Returning false stops the scan.
func (h *HeapFile) Scan(fn func(rid RID, t Tuple) bool) error {
	return h.scanPages(nil, func(_ PageID, rows []heapRow) bool {
		for _, r := range rows {
			if !fn(r.rid, r.t) {
				return false
			}
		}
		return true
	})
}

// Count returns the number of live tuples (full scan, decoding nothing).
func (h *HeapFile) Count() (int, error) {
	n := 0
	err := h.scanPages(noCols, func(_ PageID, rows []heapRow) bool { n += len(rows); return true })
	return n, err
}

// Pages returns the number of pages in the chain.
func (h *HeapFile) Pages() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.pages)
}
