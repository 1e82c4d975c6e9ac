package memo

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// Key is the content address of one Store record: a SHA-256 digest
// of the caller's canonical encoding, stable across processes (the
// campaign engine hashes the resolved simulator configuration).
type Key [32]byte

// Store is the durable sibling of Cache: a disk-backed, append-only,
// content-addressed result store. Where Cache memoizes within one
// process, Store persists results across processes, so a killed sweep
// campaign resumes from its completed jobs and a repeated campaign
// against the same store is warm-started.
//
// Layout: one JSONL file. The first line is a meta record binding the
// store to its producer (the campaign engine stores the manifest hash
// there, so a store can never be resumed under a different manifest);
// every following line is one result record
//
//	{"k":"<hex key>","v":<payload JSON>,"h":"<hex sha256(key||payload)>"}
//
// carrying its own integrity hash. Records are appended with a single
// unbuffered write, so a killed process can tear at most the final
// line; Open verifies every record's hash and silently drops torn or
// corrupted lines (counted in Stats().Dropped) — a dropped record only
// costs a recomputation, never correctness, exactly like a Cache
// eviction.
//
// A Store is safe for concurrent use. A nil *Store is a valid
// "persistence disabled" value: Get misses and Put is a no-op,
// mirroring the nil *Cache contract.
type Store struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	meta      []byte // the binding bytes this store was opened with
	head      []byte // the meta line (without newline) this open wrote/verified
	m         map[Key][]byte
	dropped   int
	appends   int64
	hits      int64
	misses    int64
	compacted int64
}

// storeVersion is bumped whenever the record encoding changes,
// invalidating every existing store file.
const storeVersion = 1

// storeMeta is the first line of a store file.
type storeMeta struct {
	Store   string `json:"store"`
	Version int    `json:"version"`
	Meta    string `json:"meta"` // hex of the caller's binding bytes
}

// storeRecord is one persisted result.
type storeRecord struct {
	K string          `json:"k"`
	V json.RawMessage `json:"v"`
	H string          `json:"h"`
}

// recordHash is the per-line integrity hash: SHA-256 over the raw key
// bytes followed by the payload bytes.
func recordHash(k Key, v []byte) string {
	h := sha256.New()
	h.Write(k[:])
	h.Write(v)
	return hex.EncodeToString(h.Sum(nil))
}

// OpenStore opens (or creates) the JSONL store at path and loads every
// intact record into memory. meta binds the store to its producer: a
// new store persists it, an existing store must carry the same bytes or
// OpenStore fails — resuming a campaign under an edited manifest is an
// error, not a silent mix of incompatible results.
func OpenStore(path string, meta []byte) (*Store, error) {
	// O_APPEND makes every record write an atomic end-of-file append,
	// so even two processes sharing one store file interleave whole
	// lines instead of clobbering each other at stale offsets.
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	head, err := json.Marshal(storeMeta{Store: "profirt-result-store", Version: storeVersion, Meta: hex.EncodeToString(meta)})
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Store{f: f, path: path, meta: bytes.Clone(meta), head: head, m: make(map[Key][]byte)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first := true
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if first {
			first = false
			var m storeMeta
			if err := json.Unmarshal(line, &m); err != nil || m.Store != "profirt-result-store" {
				// A kill can tear the meta line itself (it is the final
				// write of a brand-new store). A torn head is a strict
				// prefix of the head this open would write; anything
				// else is genuinely not a result store. Nothing can
				// follow an unterminated head, so reset and rewrite.
				if len(line) < len(head) && bytes.HasPrefix(head, line) {
					if err := f.Truncate(0); err != nil {
						f.Close()
						return nil, err
					}
					s.dropped++
					first = true
					break
				}
				f.Close()
				return nil, fmt.Errorf("memo: %s is not a result store", path)
			}
			if m.Version != storeVersion {
				f.Close()
				return nil, fmt.Errorf("memo: store %s has version %d, this build writes %d", path, m.Version, storeVersion)
			}
			if m.Meta != hex.EncodeToString(meta) {
				f.Close()
				return nil, fmt.Errorf("memo: store %s was created for different inputs (meta mismatch); use a fresh store directory", path)
			}
			continue
		}
		var rec storeRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			s.dropped++
			continue
		}
		kb, err := hex.DecodeString(rec.K)
		if err != nil || len(kb) != len(Key{}) {
			s.dropped++
			continue
		}
		var k Key
		copy(k[:], kb)
		if recordHash(k, rec.V) != rec.H {
			s.dropped++
			continue
		}
		s.m[k] = rec.V
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("memo: reading store %s: %w", path, err)
	}
	// A kill mid-write leaves the file without a trailing newline;
	// terminate the torn line so the next append starts a fresh record
	// instead of being glued to (and lost with) the partial one.
	if info, err := f.Stat(); err == nil && info.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], info.Size()-1); err == nil && last[0] != '\n' {
			if _, err := f.Write([]byte("\n")); err != nil {
				f.Close()
				return nil, err
			}
		}
	}
	if first {
		// Brand-new, empty, or head-torn-and-reset store: persist the
		// meta line.
		if _, err := f.Write(append(head, '\n')); err != nil {
			f.Close()
			return nil, err
		}
	}
	return s, nil
}

// Get returns the payload stored under k. The returned bytes are shared
// with the store and must be treated as immutable. Safe on a nil
// receiver (always a miss).
func (s *Store) Get(k Key) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	v, ok := s.m[k]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	return v, ok
}

// BoundTo reports whether the store was opened for meta, the bytes
// that bind it to its producer (see OpenStore). A nil store is bound
// to nothing.
func (s *Store) BoundTo(meta []byte) bool {
	return s != nil && bytes.Equal(s.meta, meta)
}

// Put persists v under k: the record is appended to the file (one
// unbuffered write, so a kill tears at most this line) and becomes
// visible to Get immediately. Re-putting a resident key is a no-op —
// keys are content addresses, so any writer stores an equal value.
// Safe on a nil receiver (no-op).
func (s *Store) Put(k Key, v []byte) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, resident := s.m[k]; resident {
		return nil
	}
	line, err := json.Marshal(storeRecord{K: hex.EncodeToString(k[:]), V: json.RawMessage(v), H: recordHash(k, v)})
	if err != nil {
		return err
	}
	if _, err := s.f.Write(append(line, '\n')); err != nil {
		return err
	}
	stored := make([]byte, len(v))
	copy(stored, v)
	s.m[k] = stored
	s.appends++
	return nil
}

// Len returns the number of resident records. Safe on a nil receiver.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Compact rewrites the store file to exactly its live content: the
// meta line binding it to its producer followed by one record per
// resident key (in sorted key order, so equal stores compact to equal
// bytes), dropping the dead weight an append-only file accumulates —
// torn or corrupted lines from kills mid-write, and duplicate records
// interleaved by concurrent writers. The rewrite goes to a temp file
// in the same directory, is fsynced, and atomically renamed over the
// original; a crash mid-compaction therefore leaves either the old or
// the new file, never a mix. Reopening (or continuing to use) a
// compacted store yields byte-identical results to the uncompacted
// one — compaction reclaims bytes, never state. Safe on a nil receiver
// (no-op).
//
// Compact requires exclusive access to the store file: another live
// process holding the same path open keeps its handle on the unlinked
// pre-compaction inode after the rename, so everything it appends
// afterwards is silently lost on its close (costing those jobs a
// re-execution on the next resume, never correctness). Concurrent
// appenders are an OpenStore-level capability only; compact from a
// single owner, as cmd/campaign's compact subcommand does.
func (s *Store) Compact() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]Key, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })

	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	w.Write(append(s.head, '\n'))
	for _, k := range keys {
		line, err := json.Marshal(storeRecord{K: hex.EncodeToString(k[:]), V: json.RawMessage(s.m[k]), H: recordHash(k, s.m[k])})
		if err != nil {
			tmp.Close()
			os.Remove(tmpPath)
			return err
		}
		w.Write(append(line, '\n'))
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpPath)
		return err
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		os.Remove(tmpPath)
		return err
	}
	// Swap the append handle onto the new file; the old handle points
	// at the unlinked original and is closed either way.
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		// The compacted file is in place but unappendable; keep the old
		// handle so the store stays usable (its appends land in the
		// unlinked file and are lost on close — the caller sees the
		// error and can reopen).
		return err
	}
	s.f.Close()
	s.f = f
	s.dropped = 0
	s.compacted++
	return nil
}

// Close syncs and closes the backing file. Safe on a nil receiver.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// StoreStats is a point-in-time snapshot of a Store's counters.
type StoreStats struct {
	// Entries is the resident record count.
	Entries int
	// Hits and Misses count Get outcomes since open.
	Hits, Misses int64
	// Appends counts records written since open.
	Appends int64
	// Dropped counts torn or corrupted lines skipped at open (reset to
	// zero by Compact, which removes them from the file).
	Dropped int
	// Compactions counts Compact calls since open.
	Compactions int64
}

// Stats snapshots the counters. Safe on a nil receiver (all zero).
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:     len(s.m),
		Hits:        s.hits,
		Misses:      s.misses,
		Appends:     s.appends,
		Dropped:     s.dropped,
		Compactions: s.compacted,
	}
}
