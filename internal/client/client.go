// Package client implements the typed Go client of the wbserve v1 HTTP
// API: job submission and lifecycle, the per-cell SSE event stream with
// built-in Last-Event-ID resume, report ingest and retrieval, health and
// traces. It is the implementation behind the public repro/client facade;
// the wbcampaign CLI and the distributed-fabric coordinator are both
// consumers, so every remote byte the project moves goes through this one
// package.
//
// All methods are context-first and return *APIError for any non-success
// response, carrying the server's error-envelope code — the stable
// machine contract — alongside the HTTP status and human message.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
)

// Job states, mirroring the server's job-status document.
const (
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// maxBodyBytes bounds any response body read; erroring beyond the bound
// — rather than silently truncating — means a downloaded report can
// never be persisted half-read.
const maxBodyBytes = 64 << 20

// Options tunes a Client. The zero value is ready to use.
type Options struct {
	// HTTPClient performs the request/response calls; nil uses a default
	// with a 30-second overall timeout. The SSE event stream never uses
	// it: streams live as long as the job and get an unbounded client
	// (cancellation flows through the context instead).
	HTTPClient *http.Client
}

// Client talks to one wbserve base URL. Safe for concurrent use.
type Client struct {
	base   string
	hc     *http.Client // bounded; request/response calls
	stream *http.Client // unbounded; SSE streams
}

// New returns a client for a wbserve base URL such as
// "http://host:8080"; a trailing slash is tolerated.
func New(baseURL string, opts Options) *Client {
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	return &Client{
		base:   strings.TrimSuffix(baseURL, "/"),
		hc:     hc,
		stream: &http.Client{Transport: hc.Transport},
	}
}

// BaseURL returns the server address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// APIError is a non-success response, decoded from the server's v1
// error envelope. Code is "" when the body was not an envelope (a proxy
// error page, a pre-envelope server); Message then carries the raw body.
type APIError struct {
	Status  int    // HTTP status code
	Code    string // machine code, e.g. "label_taken"
	Message string // human-readable diagnostic
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("HTTP %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("HTTP %d: %s", e.Status, e.Message)
}

// Job mirrors the server's job-status document.
type Job struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Name       string `json:"name,omitempty"`
	SpecHash   string `json:"spec_hash"`
	Label      string `json:"label,omitempty"`
	CellsDone  int    `json:"cells_done"`
	CellsTotal int    `json:"cells_total"`
	JobsDone   int    `json:"jobs_done"`
	JobsTotal  int    `json:"jobs_total"`
	Error      string `json:"error,omitempty"`
	Ref        string `json:"ref,omitempty"`
	ReportURL  string `json:"report_url,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j Job) Terminal() bool {
	return j.State == StateDone || j.State == StateFailed || j.State == StateCanceled
}

// Event is one frame of a job's SSE stream. Cell frames carry the
// completed cell (in completion order — sort by Cell.Index for matrix
// order); the final frame is the terminal status document in Job.
type Event struct {
	ID   int    // 1-based stream cursor; resume after it via Events' after
	Type string // "cell" or "state"
	Cell *campaign.CellResult
	Job  *Job
}

// apiError builds the error for a non-success response, decoding the v1
// envelope when the body carries one.
func apiError(status int, body []byte) *APIError {
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Error.Code != "" {
		return &APIError{Status: status, Code: env.Error.Code, Message: env.Error.Message}
	}
	return &APIError{Status: status, Message: strings.TrimSpace(string(body))}
}

// readBody drains and closes a response body under maxBodyBytes.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(data) > maxBodyBytes {
		return nil, fmt.Errorf("client: response body exceeds %d bytes", maxBodyBytes)
	}
	return data, nil
}

// do performs one request and returns the body, mapping any status
// other than want to an *APIError.
func (c *Client) do(req *http.Request, want int) ([]byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	data, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("client: %s %s: %w", req.Method, req.URL.Path, err)
	}
	if resp.StatusCode != want {
		return nil, apiError(resp.StatusCode, data)
	}
	return data, nil
}

// get is do for bodyless GETs.
func (c *Client) get(ctx context.Context, target string, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	return c.do(req, want)
}

// Health probes /healthz; nil means the server is up and answering.
func (c *Client) Health(ctx context.Context) error {
	_, err := c.get(ctx, c.base+"/healthz", http.StatusOK)
	return err
}

// Submit posts a campaign spec as a v1 job and returns the accepted
// job's status document. A non-empty label reserves the stored report's
// name up front; the server rejects bad or taken labels before any work
// (codes bad_label / label_taken).
func (c *Client) Submit(ctx context.Context, spec campaign.Spec, label string) (Job, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return Job{}, fmt.Errorf("client: encoding spec: %w", err)
	}
	target := c.base + "/api/v1/campaigns"
	if label != "" {
		target += "?label=" + url.QueryEscape(label)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return Job{}, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	data, err := c.do(req, http.StatusAccepted)
	if err != nil {
		return Job{}, err
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		return Job{}, fmt.Errorf("client: parsing submission response: %w", err)
	}
	return job, nil
}

// Status reads a job's current status document.
func (c *Client) Status(ctx context.Context, id string) (Job, error) {
	data, err := c.get(ctx, c.base+"/api/v1/campaigns/"+url.PathEscape(id), http.StatusOK)
	if err != nil {
		return Job{}, err
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		return Job{}, fmt.Errorf("client: parsing status: %w", err)
	}
	return job, nil
}

// Cancel asks the server to cancel a running job. Cancellation is
// asynchronous: the returned snapshot may still say running; poll
// Status to observe the terminal "canceled".
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		c.base+"/api/v1/campaigns/"+url.PathEscape(id)+"/cancel", nil)
	if err != nil {
		return Job{}, fmt.Errorf("client: %w", err)
	}
	data, err := c.do(req, http.StatusAccepted)
	if err != nil {
		return Job{}, err
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		return Job{}, fmt.Errorf("client: parsing cancel response: %w", err)
	}
	return job, nil
}

// streamRetries bounds consecutive event-stream connections that end
// without delivering a new frame — refused, dropped or closed early —
// before Events gives up and yields the last connection's failure.
const streamRetries = 5

// Events follows a job's SSE stream as an iterator, yielding each frame
// in arrival order and ending after the terminal state frame. Resume is
// built in twice over: pass after > 0 to start past a previously seen
// Event.ID, and a stream broken mid-job reconnects automatically with a
// Last-Event-ID cursor, so no frame is lost or duplicated across drops
// and subscriber evictions. A connection that delivers no new frame
// counts as a failure and backs off (failures × 100ms) before the next.
//
// A yielded error ends the iteration: the *APIError of an events route
// that answers with anything but an event stream, the context's error on
// cancellation, a frame that cannot be read or decoded, or the last
// connection failure once streamRetries consecutive connections have
// delivered nothing.
func (c *Client) Events(ctx context.Context, id string, after int) iter.Seq2[Event, error] {
	return func(yield func(Event, error) bool) {
		cursor, failures := after, 0
		for {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				c.base+"/api/v1/campaigns/"+url.PathEscape(id)+"/events", nil)
			if err != nil {
				yield(Event{}, fmt.Errorf("client: %w", err))
				return
			}
			req.Header.Set("Accept", "text/event-stream")
			if cursor > 0 {
				req.Header.Set("Last-Event-ID", strconv.Itoa(cursor))
			}
			seen := cursor
			resp, lost := c.stream.Do(req)
			if lost == nil {
				if resp.StatusCode != http.StatusOK ||
					!strings.HasPrefix(resp.Header.Get("Content-Type"), "text/event-stream") {
					body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
					resp.Body.Close()
					yield(Event{}, apiError(resp.StatusCode, body))
					return
				}
				var done bool
				done, lost = consumeStream(resp.Body, &cursor, yield)
				resp.Body.Close()
				if done {
					return
				}
			}
			if ctx.Err() != nil {
				yield(Event{}, ctx.Err())
				return
			}
			// The stream broke before the terminal frame (eviction, connection
			// loss): reconnect after the last cursor; duplicates cannot occur
			// because the server replays strictly after Last-Event-ID.
			if cursor > seen {
				failures = 0
				continue
			}
			failures++
			if failures > streamRetries {
				yield(Event{}, fmt.Errorf("client: event stream of %s: %d connections delivered no frame: %w",
					id, failures, lost))
				return
			}
			select {
			case <-ctx.Done():
				yield(Event{}, ctx.Err())
				return
			case <-time.After(time.Duration(failures) * 100 * time.Millisecond):
			}
		}
	}
}

// consumeStream parses SSE frames off one connection, yielding decoded
// events and advancing the resume cursor. done reports that the iteration
// is over: the terminal frame arrived, the consumer broke the loop, or a
// frame could not be read or decoded (the error is yielded). Otherwise
// lost says why the connection ended early.
func consumeStream(body io.Reader, cursor *int, yield func(Event, error) bool) (done bool, lost error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var event, data string
	frameID := 0
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "": // blank line dispatches the buffered frame
			switch event {
			case "cell":
				var cr campaign.CellResult
				if err := json.Unmarshal([]byte(data), &cr); err != nil {
					yield(Event{}, fmt.Errorf("client: undecodable cell frame: %w", err))
					return true, nil
				}
				if frameID > 0 {
					*cursor = frameID
				}
				if !yield(Event{ID: *cursor, Type: "cell", Cell: &cr}, nil) {
					return true, nil
				}
			case "state":
				var job Job
				if err := json.Unmarshal([]byte(data), &job); err != nil {
					yield(Event{}, fmt.Errorf("client: undecodable state frame: %w", err))
					return true, nil
				}
				if frameID > 0 {
					*cursor = frameID
				}
				yield(Event{ID: *cursor, Type: "state", Job: &job}, nil)
				return true, nil
			}
			event, data, frameID = "", "", 0
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(line[len("data:"):])
		case strings.HasPrefix(line, "id:"):
			if n, err := strconv.Atoi(strings.TrimSpace(line[len("id:"):])); err == nil {
				frameID = n
			}
			// retry: and comment lines pass through; our recovery path is the
			// reconnect loop above, not EventSource's timer.
		}
	}
	switch err := sc.Err(); {
	case errors.Is(err, bufio.ErrTooLong):
		// Every reconnect would replay the same oversized frame.
		yield(Event{}, fmt.Errorf("client: event frame exceeds %d bytes: %w", 1<<20, err))
		return true, nil
	case err != nil:
		return false, err
	}
	return false, errors.New("stream closed before the terminal frame")
}

// Ingest publishes a finished report to the server's primary store and
// returns the entry it was stored under.
func (c *Client) Ingest(ctx context.Context, rep *campaign.Report, label string) (resultstore.Entry, error) {
	var body bytes.Buffer
	if err := rep.WriteJSON(&body); err != nil {
		return resultstore.Entry{}, fmt.Errorf("client: encoding report: %w", err)
	}
	target := c.base + "/api/v1/reports"
	if label != "" {
		target += "?label=" + url.QueryEscape(label)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, &body)
	if err != nil {
		return resultstore.Entry{}, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	data, err := c.do(req, http.StatusCreated)
	if err != nil {
		return resultstore.Entry{}, err
	}
	var entry resultstore.Entry
	if err := json.Unmarshal(data, &entry); err != nil {
		return resultstore.Entry{}, fmt.Errorf("client: parsing ingest response: %w", err)
	}
	return entry, nil
}

// Report downloads one rendered representation of a stored report.
// ref is "<spec-hash>/<label>" (Entry.Ref, Job.Ref); format is "json"
// or "csv", with "" meaning the server default (json). The bytes are
// exactly what a local run would have written.
func (c *Client) Report(ctx context.Context, ref, format string) ([]byte, error) {
	target := c.base + "/api/v1/reports/" + ref
	if format != "" {
		target += "?format=" + url.QueryEscape(format)
	}
	return c.get(ctx, target, http.StatusOK)
}

// LoadReport downloads and decodes a stored report.
func (c *Client) LoadReport(ctx context.Context, ref string) (*campaign.Report, error) {
	data, err := c.Report(ctx, ref, "json")
	if err != nil {
		return nil, err
	}
	var rep campaign.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("client: parsing report %s: %w", ref, err)
	}
	return &rep, nil
}

// Trace downloads a job's span-tree document — the same shape a local
// run's -trace flag writes.
func (c *Client) Trace(ctx context.Context, id string) ([]byte, error) {
	return c.get(ctx, c.base+"/api/v1/trace/"+url.PathEscape(id), http.StatusOK)
}
