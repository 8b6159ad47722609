package storage

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// FS is the filesystem Store: one directory per job under <root>/jobs/,
// one file per key — byte-for-byte the layout internal/serve has written
// since the service shipped, so existing data directories are readable
// unchanged. Put writes tmp + fsync + rename + directory fsync, making
// "Put returned" mean "survives power loss"; stale *.tmp files left by a
// crash mid-Put are swept when the store opens.
type FS struct {
	root string // absolute persistence root; jobs live in root/jobs
}

// NewFS opens (creating if needed) a filesystem store rooted at root and
// sweeps stale temporary files left behind by a crash mid-Put.
func NewFS(root string) (*FS, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("storage: resolving root: %w", err)
	}
	st := &FS{root: abs}
	if err := os.MkdirAll(st.jobsDir(), 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating data dir: %w", err)
	}
	if err := st.sweepTemp(); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *FS) jobsDir() string          { return filepath.Join(st.root, "jobs") }
func (st *FS) jobDir(job string) string { return filepath.Join(st.jobsDir(), job) }
func (st *FS) keyPath(job, key string) string {
	return filepath.Join(st.jobDir(job), key)
}

// Path implements Pather: keys are real files.
func (st *FS) Path(job, key string) string { return st.keyPath(job, key) }

// sweepTemp removes *.tmp files under every job directory: leftovers of
// Puts interrupted before their rename. The rename either happened (the
// value is the new one, the tmp name is gone) or did not (the value is
// the old one and the tmp holds an unreferenced, possibly torn draft) —
// in both cases the tmp file is garbage.
func (st *FS) sweepTemp() error {
	entries, err := os.ReadDir(st.jobsDir())
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(st.jobDir(e.Name()))
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return err
		}
		for _, f := range files {
			if !f.IsDir() && strings.HasSuffix(f.Name(), ".tmp") {
				if err := os.Remove(filepath.Join(st.jobDir(e.Name()), f.Name())); err != nil && !os.IsNotExist(err) {
					return fmt.Errorf("storage: sweeping stale %s: %w", f.Name(), err)
				}
			}
		}
	}
	return nil
}

// Put creates the job directory and writes the key through WriteFile.
func (st *FS) Put(job, key string, data []byte) error {
	if err := os.MkdirAll(st.jobDir(job), 0o755); err != nil {
		return err
	}
	return WriteFile(st.keyPath(job, key), data)
}

// WriteFile replaces path with data atomically and durably: it writes
// path+".tmp", fsyncs it, renames it over path and fsyncs the directory
// so the rename itself survives power loss. The temp file is removed on
// every failure. It does not create path's directory.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a rename within it is durable. Some
// filesystems refuse to fsync directories; that refusal is not a torn
// write, so it is ignored.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !isSyncUnsupported(err) {
		return err
	}
	return nil
}

// isSyncUnsupported reports errors meaning "this target cannot fsync",
// as opposed to "the fsync failed".
func isSyncUnsupported(err error) bool {
	var pe *fs.PathError
	if errors.As(err, &pe) {
		msg := pe.Err.Error()
		return msg == "invalid argument" || msg == "operation not supported" || msg == "not supported"
	}
	return false
}

// Get returns the key's whole value.
func (st *FS) Get(job, key string) ([]byte, error) {
	data, err := os.ReadFile(st.keyPath(job, key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotExist, job, key)
	}
	return data, err
}

// Append appends data as one write on an O_APPEND handle, creating the
// job and key as needed.
func (st *FS) Append(job, key string, data []byte) error {
	if err := os.MkdirAll(st.jobDir(job), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(st.keyPath(job, key), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if len(data) > 0 {
		if _, err := f.Write(data); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Open returns the underlying file: reading at EOF and retrying after an
// Append observes the new bytes, because the file only ever grows between
// Truncates.
func (st *FS) Open(job, key string) (io.ReadCloser, error) {
	f, err := os.Open(st.keyPath(job, key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotExist, job, key)
	}
	return f, err
}

// Truncate shrinks the key to size bytes.
func (st *FS) Truncate(job, key string, size int64) error {
	err := os.Truncate(st.keyPath(job, key), size)
	if os.IsNotExist(err) {
		return fmt.Errorf("%w: %s/%s", ErrNotExist, job, key)
	}
	return err
}

// List returns every job directory name, sorted (os.ReadDir sorts).
func (st *FS) List() ([]string, error) {
	entries, err := os.ReadDir(st.jobsDir())
	if err != nil {
		return nil, err
	}
	jobs := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			jobs = append(jobs, e.Name())
		}
	}
	return jobs, nil
}

// Delete removes the job's directory and everything in it.
func (st *FS) Delete(job string) error {
	return os.RemoveAll(st.jobDir(job))
}
