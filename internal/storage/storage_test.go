package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// stores builds one instance of every Store implementation over fresh
// state; the contract tests below run against each — including the
// remote client speaking HTTP to its handler over a fresh Mem backend,
// so the network store honours the identical contract.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	fs, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"fs": fs, "mem": NewMem(), "remote": newTestRemote(t, NewMem(), RemoteHooks{})}
}

func TestStoreContract(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			// Missing keys and jobs answer ErrNotExist.
			if _, err := st.Get("j1", "status.json"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Get of missing key: %v, want ErrNotExist", err)
			}
			if _, err := st.Open("j1", "status.json"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Open of missing key: %v, want ErrNotExist", err)
			}
			if err := st.Truncate("j1", "status.json", 0); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Truncate of missing key: %v, want ErrNotExist", err)
			}

			// Put / Get round-trip, including overwrite.
			if err := st.Put("j1", "status.json", []byte(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
			if err := st.Put("j1", "status.json", []byte(`{"v":2}`)); err != nil {
				t.Fatal(err)
			}
			got, err := st.Get("j1", "status.json")
			if err != nil || string(got) != `{"v":2}` {
				t.Fatalf("Get = %q, %v", got, err)
			}

			// Get returns a copy: mutating it must not corrupt the store.
			got[0] = 'X'
			again, _ := st.Get("j1", "status.json")
			if string(again) != `{"v":2}` {
				t.Fatal("Get aliases the stored value")
			}

			// Append creates and grows; empty append creates without growing.
			if err := st.Append("j1", "events.ndjson", nil); err != nil {
				t.Fatal(err)
			}
			if got, err := st.Get("j1", "events.ndjson"); err != nil || len(got) != 0 {
				t.Fatalf("empty append: Get = %q, %v", got, err)
			}
			if err := st.Append("j1", "events.ndjson", []byte("a\n")); err != nil {
				t.Fatal(err)
			}
			if err := st.Append("j1", "events.ndjson", []byte("b\n")); err != nil {
				t.Fatal(err)
			}
			if got, _ := st.Get("j1", "events.ndjson"); string(got) != "a\nb\n" {
				t.Fatalf("appended value %q", got)
			}

			// Truncate heals a torn tail.
			if err := st.Append("j1", "events.ndjson", []byte(`{"torn`)); err != nil {
				t.Fatal(err)
			}
			if err := st.Truncate("j1", "events.ndjson", 4); err != nil {
				t.Fatal(err)
			}
			if got, _ := st.Get("j1", "events.ndjson"); string(got) != "a\nb\n" {
				t.Fatalf("truncated value %q", got)
			}

			// List sees both jobs, sorted.
			if err := st.Put("j0", "status.json", []byte("{}")); err != nil {
				t.Fatal(err)
			}
			jobs, err := st.List()
			if err != nil || !reflect.DeepEqual(jobs, []string{"j0", "j1"}) {
				t.Fatalf("List = %v, %v", jobs, err)
			}

			// Delete drops a whole keyspace; absent delete is a no-op.
			if err := st.Delete("j0"); err != nil {
				t.Fatal(err)
			}
			if err := st.Delete("j0"); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Get("j0", "status.json"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Get after Delete: %v, want ErrNotExist", err)
			}
			jobs, _ = st.List()
			if !reflect.DeepEqual(jobs, []string{"j1"}) {
				t.Fatalf("List after Delete = %v", jobs)
			}
		})
	}
}

// TestOpenObservesGrowth is the tail-a-live-log contract: a reader that
// hit EOF sees bytes appended afterwards on its next Read.
func TestOpenObservesGrowth(t *testing.T) {
	for name, st := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if err := st.Append("j", "log", []byte("one\n")); err != nil {
				t.Fatal(err)
			}
			r, err := st.Open("j", "log")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			buf := make([]byte, 64)
			n, _ := io.ReadFull(r, buf[:4])
			if string(buf[:n]) != "one\n" {
				t.Fatalf("first read %q", buf[:n])
			}
			if _, err := r.Read(buf); err != io.EOF {
				t.Fatalf("read at end: %v, want EOF", err)
			}
			if err := st.Append("j", "log", []byte("two\n")); err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(2 * time.Second)
			var tail []byte
			for len(tail) < 4 {
				n, err := r.Read(buf)
				tail = append(tail, buf[:n]...)
				if err != nil && err != io.EOF {
					t.Fatal(err)
				}
				if time.Now().After(deadline) {
					t.Fatalf("reader never observed growth; got %q", tail)
				}
			}
			if string(tail) != "two\n" {
				t.Fatalf("growth read %q", tail)
			}
		})
	}
}

// TestFSCompatibleLayout pins the on-disk layout to the one the service
// has always written: <root>/jobs/<id>/<file>, plain files, no envelope —
// existing data dirs must keep working.
func TestFSCompatibleLayout(t *testing.T) {
	root := t.TempDir()
	// A pre-existing data dir written by an older build.
	old := filepath.Join(root, "jobs", "j0ld")
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, "status.json"), []byte(`{"id":"j0ld"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewFS(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Get("j0ld", "status.json")
	if err != nil || string(got) != `{"id":"j0ld"}` {
		t.Fatalf("old data dir unreadable: %q, %v", got, err)
	}
	// And the store's own writes land as plain files at the same paths.
	if err := st.Put("jnew", "result.json", []byte("{}")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "jobs", "jnew", "result.json"))
	if err != nil || string(raw) != "{}" {
		t.Fatalf("layout moved: %q, %v", raw, err)
	}
	if p := st.Path("jnew", "result.json"); p != filepath.Join(root, "jobs", "jnew", "result.json") {
		t.Fatalf("Path = %q", p)
	}
	if !filepath.IsAbs(st.Path("jnew", "result.json")) {
		t.Fatal("Path is not absolute")
	}
}

// TestFSSweepsStaleTemps: *.tmp drafts left by a crash mid-Put are gone
// after the store opens, and the committed values survive.
func TestFSSweepsStaleTemps(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "jobs", "jx")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "status.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "status.json.tmp"), []byte(`{"torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := NewFS(root)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "status.json.tmp")); !os.IsNotExist(err) {
		t.Fatalf("stale tmp survived the sweep: %v", err)
	}
	if got, err := st.Get("jx", "status.json"); err != nil || string(got) != "{}" {
		t.Fatalf("committed value lost: %q, %v", got, err)
	}
}

func TestMemReaderClosed(t *testing.T) {
	st := NewMem()
	if err := st.Append("j", "log", []byte("x")); err != nil {
		t.Fatal(err)
	}
	r, err := st.Open("j", "log")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 1)); err == nil {
		t.Fatal("read on closed reader succeeded")
	}
	// A reader of a deleted key reports ErrNotExist.
	r2, _ := st.Open("j", "log")
	if err := st.Delete("j"); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Read(make([]byte, 1)); !errors.Is(err, ErrNotExist) {
		t.Fatalf("read of deleted key: %v, want ErrNotExist", err)
	}
}

// TestFSErrorPaths exercises the filesystem store's failure surface:
// unusable roots, job names shadowed by files, vanished roots.
func TestFSErrorPaths(t *testing.T) {
	// A root whose jobs/ path is shadowed by a regular file cannot open.
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "jobs"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFS(bad); err == nil {
		t.Fatal("NewFS over a shadowed jobs path succeeded")
	}

	st, err := NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A job id shadowed by a regular file refuses writes instead of
	// corrupting it.
	if err := os.WriteFile(filepath.Join(st.jobsDir(), "jfile"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("jfile", "k", []byte("v")); err == nil {
		t.Fatal("Put under a file-shadowed job succeeded")
	}
	if err := st.Append("jfile", "k", []byte("v")); err == nil {
		t.Fatal("Append under a file-shadowed job succeeded")
	}
	// Shadow files are not listed as jobs.
	jobs, err := st.List()
	if err != nil || len(jobs) != 0 {
		t.Fatalf("List = %v, %v", jobs, err)
	}
	// A vanished root fails List loudly rather than reporting no jobs.
	if err := os.RemoveAll(st.jobsDir()); err != nil {
		t.Fatal(err)
	}
	if _, err := st.List(); err == nil {
		t.Fatal("List over a vanished root succeeded")
	}
	if err := st.sweepTemp(); err == nil {
		t.Fatal("sweepTemp over a vanished root succeeded")
	}
}

// TestWriteFileFailures: WriteFile creates no directory, and a rename
// that fails (onto an existing directory) leaves no temp file behind and
// the target untouched.
func TestWriteFileFailures(t *testing.T) {
	dir := t.TempDir()
	if err := WriteFile(filepath.Join(dir, "missing", "x"), []byte("v")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, "missing")); !os.IsNotExist(err) {
		t.Fatalf("WriteFile created the missing directory: %v", err)
	}

	target := filepath.Join(dir, "taken")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("v")); err == nil {
		t.Fatal("WriteFile renamed over a directory")
	}
	if _, err := os.Stat(target + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("failed rename left %s.tmp behind: %v", target, err)
	}
	if fi, err := os.Stat(target); err != nil || !fi.IsDir() {
		t.Fatalf("failed rename disturbed the target: %v", err)
	}

	// A successful write replaces the file whole.
	path := filepath.Join(dir, "f")
	for _, v := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(v)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != v {
			t.Fatalf("after writing %q read %q, %v", v, got, err)
		}
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("successful write left a temp file: %v", err)
	}
}

func TestIsSyncUnsupported(t *testing.T) {
	if isSyncUnsupported(errors.New("plain")) {
		t.Fatal("plain error counted as unsupported-sync")
	}
	pe := &os.PathError{Op: "sync", Path: "d", Err: errors.New("invalid argument")}
	if !isSyncUnsupported(pe) {
		t.Fatal("EINVAL-style path error not recognized")
	}
	pe2 := &os.PathError{Op: "sync", Path: "d", Err: errors.New("input/output error")}
	if isSyncUnsupported(pe2) {
		t.Fatal("real I/O error swallowed as unsupported-sync")
	}
}
