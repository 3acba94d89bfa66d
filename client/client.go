// Package client is the public typed Go client of the wbserve v1 HTTP
// API — job submission and lifecycle, the per-cell SSE event stream with
// built-in Last-Event-ID resume, report ingest and retrieval, health and
// traces. It is the stable facade over repro/internal/client, in the
// style of the repro/campaign and repro/store facades: the wbcampaign
// CLI and the distributed campaign fabric are two consumers of this one
// API, so anything they can do remotely, library code can too.
//
// Every method is context-first; cancel the context to abandon a call or
// stream. Non-success responses surface as *APIError carrying the
// server's error-envelope code (for example "label_taken"), the stable
// machine contract for failure handling:
//
//	c := client.New("http://host:8080", client.Options{})
//	job, err := c.Submit(ctx, spec, "nightly")
//	var apiErr *client.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == "label_taken" { ... }
//	for ev, err := range c.Events(ctx, job.ID, 0) {
//		if err != nil { ... } // the stream resumes by itself; an error is final
//		if ev.Type == "cell" { fmt.Println(ev.Cell.Index) }
//	}
package client

import (
	internal "repro/internal/client"
)

// Client talks to one wbserve base URL. Safe for concurrent use. All
// methods of the underlying client — Health, Submit, Status, Cancel,
// Events, Ingest, Report, LoadReport, Trace, BaseURL — are part of the
// public surface.
type Client = internal.Client

// Options tunes a Client; the zero value is ready to use.
type Options = internal.Options

// APIError is a non-success response: HTTP status, envelope code and
// human message.
type APIError = internal.APIError

// Job mirrors the server's job-status document.
type Job = internal.Job

// Event is one frame of a job's SSE stream: a completed cell or the
// terminal status document.
type Event = internal.Event

// Job states, as reported in Job.State.
const (
	StateRunning  = internal.StateRunning
	StateDone     = internal.StateDone
	StateFailed   = internal.StateFailed
	StateCanceled = internal.StateCanceled
)

// New returns a client for a wbserve base URL such as
// "http://host:8080".
func New(baseURL string, opts Options) *Client { return internal.New(baseURL, opts) }
