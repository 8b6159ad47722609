package storage

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
)

// ErrFenced is the sentinel a Remote's mutation returns when the
// coordinator refuses the write for lack of a valid lease — the fencing
// check that keeps a worker whose lease expired (and whose job was
// re-leased to someone else) from corrupting state with late writes.
// Test with errors.Is.
var ErrFenced = errors.New("storage: write fenced: no active lease")

// Headers of the remote store protocol (see NewRemoteHandler).
const (
	// LeaseHeader carries the fencing token mutations are authorized by.
	LeaseHeader = "X-Evoprot-Lease"
	// writeIDHeader carries a per-append nonce so a duplicated delivery
	// (a retried or replayed request) is applied once.
	writeIDHeader = "X-Evoprot-Write"
)

// Remote is the network half of the storage seam: a Store whose backend
// lives behind a coordinator's HTTP store handler (NewRemoteHandler).
// Cluster workers persist a leased job's spec, status, events and
// checkpoints through it, so every existing persistence path — the
// engine, the event log, checkpoint sinks — flows unchanged across the
// network. Mutations carry the job's fencing token (RemoteWithToken);
// writes refused by the coordinator's lease check come back as ErrFenced.
type Remote struct {
	base   string // handler root, no trailing slash
	client *http.Client
	token  func(job string) string
}

// RemoteOption configures NewRemote.
type RemoteOption func(*Remote)

// RemoteWithClient sets the HTTP client (default http.DefaultClient).
func RemoteWithClient(c *http.Client) RemoteOption {
	return func(r *Remote) { r.client = c }
}

// RemoteWithToken installs the per-job fencing-token source attached to
// every mutation. A nil or empty result sends no token — fine against a
// handler without an Authorize hook.
func RemoteWithToken(fn func(job string) string) RemoteOption {
	return func(r *Remote) { r.token = fn }
}

// NewRemote builds a Store client over the handler rooted at base
// (e.g. "http://coordinator:8080/v1/store").
func NewRemote(base string, opts ...RemoteOption) *Remote {
	r := &Remote{base: strings.TrimSuffix(base, "/"), client: http.DefaultClient}
	for _, o := range opts {
		o(r)
	}
	return r
}

// keyURL returns the resource URL for (job, key) plus optional extra
// path segments (the mutation verbs).
func (r *Remote) keyURL(job, key string, extra ...string) string {
	u := r.base + "/" + url.PathEscape(job) + "/" + url.PathEscape(key)
	for _, e := range extra {
		u += "/" + e
	}
	return u
}

// do issues one exchange and maps the response status onto the Store
// error contract: 2xx passes, 404 is ErrNotExist, 409 is ErrFenced,
// anything else surfaces the handler's error text.
func (r *Remote) do(req *http.Request, job string) (*http.Response, error) {
	if r.token != nil {
		if tok := r.token(job); tok != "" {
			req.Header.Set(LeaseHeader, tok)
		}
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("storage: remote %s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	resp.Body.Close()
	msg := strings.TrimSpace(string(body))
	switch resp.StatusCode {
	case http.StatusNotFound:
		return nil, fmt.Errorf("storage: remote %s: %w", msg, ErrNotExist)
	case http.StatusConflict:
		return nil, fmt.Errorf("storage: remote %s: %w", msg, ErrFenced)
	default:
		return nil, fmt.Errorf("storage: remote %s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, msg)
	}
}

// drain closes a successful response after consuming it, keeping the
// underlying connection reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Put atomically replaces key's value (durability is the backend's —
// the handler applies it through its own Store's Put).
func (r *Remote) Put(job, key string, data []byte) error {
	req, err := http.NewRequest(http.MethodPut, r.keyURL(job, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	resp, err := r.do(req, job)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// Get returns key's whole value.
func (r *Remote) Get(job, key string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, r.keyURL(job, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.do(req, job)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

// Append appends data to key. Each call carries a fresh write id, so a
// network-level duplicate delivery of the same append is applied once by
// the handler.
func (r *Remote) Append(job, key string, data []byte) error {
	req, err := http.NewRequest(http.MethodPost, r.keyURL(job, key, "append"), bytes.NewReader(data))
	if err != nil {
		return err
	}
	if id := newWriteID(); id != "" {
		req.Header.Set(writeIDHeader, id)
	}
	resp, err := r.do(req, job)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// Open returns a growth-observing reader: each Read past the buffered
// end re-fetches from the current offset, so a reader that hit io.EOF
// sees bytes appended afterwards on its next call — the same tailing
// contract as the local stores, at per-poll HTTP cost.
func (r *Remote) Open(job, key string) (io.ReadCloser, error) {
	rd := &remoteReader{r: r, job: job, key: key}
	// Probe now so a missing key fails Open with ErrNotExist rather than
	// the first Read.
	if err := rd.fetch(); err != nil {
		return nil, err
	}
	return rd, nil
}

// Truncate shrinks key's value to size bytes.
func (r *Remote) Truncate(job, key string, size int64) error {
	u := r.keyURL(job, key, "truncate") + "?size=" + strconv.FormatInt(size, 10)
	req, err := http.NewRequest(http.MethodPost, u, nil)
	if err != nil {
		return err
	}
	resp, err := r.do(req, job)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// List returns every job id, sorted (the handler sorts).
func (r *Remote) List() ([]string, error) {
	req, err := http.NewRequest(http.MethodGet, r.base+"/", nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.do(req, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var jobs []string
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		return nil, fmt.Errorf("storage: remote list: %w", err)
	}
	return jobs, nil
}

// Delete removes job's whole keyspace.
func (r *Remote) Delete(job string) error {
	req, err := http.NewRequest(http.MethodDelete, r.base+"/"+url.PathEscape(job), nil)
	if err != nil {
		return err
	}
	resp, err := r.do(req, job)
	if err != nil {
		return err
	}
	drain(resp)
	return nil
}

// remoteReader tails a remote key: buf holds fetched-but-unread bytes,
// off the next offset to fetch. Not safe for concurrent use, like any
// io.Reader.
type remoteReader struct {
	r        *Remote
	job, key string
	off      int64
	buf      []byte
	closed   bool
}

// fetch pulls the bytes currently past off into buf.
func (rd *remoteReader) fetch() error {
	u := rd.r.keyURL(rd.job, rd.key) + "?offset=" + strconv.FormatInt(rd.off, 10)
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := rd.r.do(req, rd.job)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	rd.buf = append(rd.buf, data...)
	rd.off += int64(len(data))
	return nil
}

func (rd *remoteReader) Read(p []byte) (int, error) {
	if rd.closed {
		return 0, errors.New("storage: read on closed remote reader")
	}
	if len(rd.buf) == 0 {
		if err := rd.fetch(); err != nil {
			return 0, err
		}
		if len(rd.buf) == 0 {
			return 0, io.EOF
		}
	}
	n := copy(p, rd.buf)
	rd.buf = rd.buf[n:]
	return n, nil
}

func (rd *remoteReader) Close() error {
	rd.closed = true
	rd.buf = nil
	return nil
}

// newWriteID returns a random per-append nonce.
func newWriteID() string {
	var buf [8]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// No id means no duplicate suppression for this append — strictly
		// better than a constant id, which would wrongly suppress distinct
		// appends. An unreadable entropy source must not fail the write.
		return ""
	}
	return hex.EncodeToString(buf[:])
}
