package sampling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"morrigan/internal/atomicfile"
	"morrigan/internal/trace"
)

// profileKeyVersion is the domain-separation prefix of profile artifact keys.
// Bump it together with ProfileSchemaVersion/FeatureVersion changes that
// alter artifact meaning.
const profileKeyVersion = "morrigan/sampling.ProfileKey/v1"

// ProfileKey derives the content address of a profile artifact: the hash of
// everything that determines its bytes — format versions, the workload's
// own hash, and the profiling window geometry.
func ProfileKey(workloadHash string, skip, measure, interval uint64) string {
	h := sha256.New()
	var buf [8]byte
	ws := func(s string) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws(profileKeyVersion)
	wu(uint64(ProfileSchemaVersion))
	wu(uint64(FeatureVersion))
	ws(workloadHash)
	wu(skip)
	wu(measure)
	wu(interval)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// ProfileStore caches profile artifacts for the lifetime of a campaign. The
// functional profiling pass depends only on the workload and the sampling
// window — not on the machine under test — so a sweep that runs N
// configurations over the same workload pays the pass once. Every store keeps
// completed profiles in memory (a campaign's distinct (workload, window) set
// is small and each profile is a few KB) and single-flights builds per key;
// failed builds are dropped so a transient reader error doesn't poison the
// key. A store opened on a directory also persists each artifact there as one
// JSON file per key, typically in a profiles/ directory beside the trace
// corpus, so later campaigns reuse it.
type ProfileStore struct {
	dir string // "" = memory only

	mu    sync.Mutex
	calls map[string]*profileCall

	built  atomic.Uint64
	reused atomic.Uint64
}

// ProfileReuse says how ProfileStore.Profile served a request: the reuse
// outcome a trace's sample.profile span carries.
type ProfileReuse string

const (
	ProfileBuilt  ProfileReuse = "built"  // a functional pass computed it
	ProfileDisk   ProfileReuse = "disk"   // loaded from the store's directory
	ProfileMemory ProfileReuse = "memory" // an earlier request's completed artifact
	ProfileWait   ProfileReuse = "wait"   // waited for an in-flight request's build or load
)

type profileCall struct {
	done chan struct{}
	prof *Profile
	err  error
}

// OpenProfileStore opens a profile store on dir, creating it if needed; an
// empty dir gives a memory-only store.
func OpenProfileStore(dir string) (*ProfileStore, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("sampling: profile store: %w", err)
		}
	}
	return &ProfileStore{dir: dir, calls: make(map[string]*profileCall)}, nil
}

func (ps *ProfileStore) path(key string) string {
	return filepath.Join(ps.dir, key+".json")
}

// Profile returns the cached artifact for the window, building it with a
// functional pass over a fresh reader from newReader when absent, and says
// how it was served. The returned profile is shared; callers must not mutate
// it (Cluster copies before normalising).
func (ps *ProfileStore) Profile(workloadHash string, skip, measure, interval uint64, newReader func() (trace.Reader, error)) (*Profile, ProfileReuse, error) {
	key := ProfileKey(workloadHash, skip, measure, interval)

	ps.mu.Lock()
	if call, ok := ps.calls[key]; ok {
		ps.mu.Unlock()
		how := ProfileMemory
		select {
		case <-call.done:
		default:
			how = ProfileWait
			<-call.done
		}
		if call.err == nil {
			ps.reused.Add(1)
		}
		return call.prof, how, call.err
	}
	call := &profileCall{done: make(chan struct{})}
	ps.calls[key] = call
	ps.mu.Unlock()

	how := ProfileDisk
	if ps.dir != "" {
		call.prof, call.err = ps.load(key, workloadHash, skip, measure, interval)
	}
	if call.err == nil && call.prof != nil {
		ps.reused.Add(1)
	}
	if call.err == nil && call.prof == nil {
		how = ProfileBuilt
		call.prof, call.err = ps.build(key, workloadHash, skip, measure, interval, newReader)
		if call.err == nil {
			ps.built.Add(1)
		}
	}
	close(call.done)

	if call.err != nil {
		ps.mu.Lock()
		delete(ps.calls, key)
		ps.mu.Unlock()
	}
	return call.prof, how, call.err
}

// load reads and validates a cached artifact; (nil, nil) means absent. A
// corrupt or mismatched artifact is treated as absent rather than fatal —
// the build path overwrites it.
func (ps *ProfileStore) load(key, workloadHash string, skip, measure, interval uint64) (*Profile, error) {
	raw, err := os.ReadFile(ps.path(key))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sampling: profile store: %w", err)
	}
	var prof Profile
	if err := json.Unmarshal(raw, &prof); err != nil {
		return nil, nil
	}
	if prof.Schema != ProfileSchemaVersion || prof.Feature != FeatureVersion ||
		prof.Workload != workloadHash || prof.Skip != skip ||
		prof.Measure != measure || prof.Interval != interval ||
		len(prof.Intervals) == 0 {
		return nil, nil
	}
	return &prof, nil
}

func (ps *ProfileStore) build(key, workloadHash string, skip, measure, interval uint64, newReader func() (trace.Reader, error)) (*Profile, error) {
	r, err := newReader()
	if err != nil {
		return nil, fmt.Errorf("sampling: opening reader for profiling: %w", err)
	}
	defer closeReader(r)
	prof, err := BuildProfile(r, workloadHash, skip, measure, interval)
	if err != nil {
		return nil, err
	}
	if ps.dir == "" {
		return prof, nil
	}

	raw, err := json.Marshal(prof)
	if err != nil {
		return nil, err
	}
	err = atomicfile.Write(ps.path(key), func(f *os.File) error {
		_, err := f.Write(raw)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("sampling: profile store: %w", err)
	}
	return prof, nil
}

func closeReader(r trace.Reader) {
	if c, ok := r.(interface{ Close() error }); ok {
		c.Close()
	}
}

// Built returns how many profiles this store computed from scratch.
func (ps *ProfileStore) Built() uint64 { return ps.built.Load() }

// Reused returns how many profile requests were served from cache (in
// memory, on disk or in flight).
func (ps *ProfileStore) Reused() uint64 { return ps.reused.Load() }
