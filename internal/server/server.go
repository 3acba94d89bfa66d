// Package server exposes one or more result stores over HTTP: the
// read-mostly complement to `wbcampaign run -store`. Campaigns are
// produced once and browsed many times — per-cell complexity tables,
// cross-revision diffs, model-comparison sweeps — so the service leans
// hard on the store's content addressing: every report and diff response
// carries a strong ETag derived from the immutable store key pair, a
// conditional request with that tag short-circuits to 304 Not Modified
// without touching a report body, and rendered diffs are kept in an
// in-memory LRU so repeated comparisons never recompute. Report, 304 and
// diff requests that name a run by its full hash/label pair — the refs
// listings hand out, store-assigned run-NNN labels included — are
// answered by a keyed read of that one envelope, without the store's
// freshness walk. Listings, ?protocol= and ?graph= filters included,
// answer from the store's persistent entry index after that walk, which
// reads directory metadata only; no route re-reads every envelope.
//
// The service also *accepts* work: POST /api/v1/campaigns submits a
// campaign spec as an asynchronous job, executed in-process on the
// streaming campaign runner, with per-cell progress, cancellation, and
// the completed report landing in the primary store — where the existing
// report/diff/ETag routes serve it unchanged.
//
// Routes (all responses are JSON unless negotiated otherwise):
//
//	GET  /api/v1/reports                    list stored runs; filters:
//	                                        ?spec= ?label= ?protocol= ?graph= ?mode=
//	                                        pagination: ?limit= ?offset= (RFC 5988 Link)
//	GET  /api/v1/reports/{hash}/{label}     one report; ?format=json|csv or Accept: text/csv
//	GET  /api/v1/diff?old=REF&new=REF       pairwise diff; ?format=text|json or
//	                                        Accept: application/json; no refs = latest pair
//	POST /api/v1/reports?label=L            ingest a report into the primary store
//	POST /api/v1/campaigns?label=L          submit a campaign spec; 202 + job id
//	GET  /api/v1/campaigns                  list jobs; ?state= filter
//	GET  /api/v1/campaigns/{id}             job status: cells done/total, ref when done
//	GET  /api/v1/campaigns/{id}/events      SSE stream of per-cell results as they
//	                                        complete; Last-Event-ID resumes, late
//	                                        subscribers replay completed cells
//	GET  /watch/{id}                        embedded live-sweep page over the stream
//	POST /api/v1/campaigns/{id}/cancel      cancel a running job
//	GET  /api/v1/trace/{id}                 span tree recorded while a job ran
//	GET  /healthz                           liveness (cheap, no store scan)
//	GET  /metrics                           every wb_* family, Prometheus text format
//
// A store failure that is not the client's answers 500 and is logged once,
// at error level, through Options.Logger, next to the request and job logs.
//
// Reads are safe against stores being written concurrently by
// `wbcampaign run -store`: listings are mutation-tolerant snapshots
// (resultstore.List) and stored files only ever appear atomically.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/jsonindent"
	"repro/internal/resultstore"
	"repro/internal/telemetry"
)

// diffCacheSize bounds the rendered-diff LRU.
const diffCacheSize = 256

// Options configures a Server.
type Options struct {
	// Stores are the result stores to serve, merged into one namespace.
	// Lookups try them in order; ingest writes to the first.
	Stores []*resultstore.Store
	// ReadOnly disables the write routes: report ingest and campaign job
	// submission both answer 403.
	ReadOnly bool
	// JobWorkers is the campaign worker-pool size for each submitted job;
	// 0 means GOMAXPROCS. Reports are byte-identical at any value.
	JobWorkers int
	// Logger receives structured request, job and store-failure logs; nil
	// discards them.
	Logger *slog.Logger
}

// Server is the HTTP facade over the stores. It is safe for concurrent
// use; construct it with New.
type Server struct {
	stores   []*resultstore.Store
	cache    *lru
	tel      *telemetry.Set
	tracer   *telemetry.Tracer
	jobs     *jobManager
	readOnly bool
	logger   *slog.Logger
	handler  http.Handler
}

// New builds a Server over the given stores.
func New(opts Options) (*Server, error) {
	if len(opts.Stores) == 0 {
		return nil, fmt.Errorf("server: at least one result store is required")
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	tel := telemetry.NewSet()
	tracer := telemetry.NewTracer(telemetry.DefaultSpanCapacity)
	hits, misses := tel.HTTP.CacheCounters()
	s := &Server{
		stores:   opts.Stores,
		cache:    newLRU(diffCacheSize, hits, misses),
		tel:      tel,
		tracer:   tracer,
		jobs:     newJobManager(opts.Stores[0], opts.JobWorkers, tel, tracer, logger),
		readOnly: opts.ReadOnly,
		logger:   logger,
	}
	for _, st := range opts.Stores {
		st.SetMetrics(tel.Store)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/reports", s.handleList)
	mux.HandleFunc("POST /api/v1/reports", s.handleIngest)
	mux.HandleFunc("GET /api/v1/reports/{hash}/{label}", s.handleReport)
	mux.HandleFunc("GET /api/v1/diff", s.handleDiff)
	mux.HandleFunc("POST /api/v1/campaigns", s.handleJobSubmit)
	mux.HandleFunc("GET /api/v1/campaigns", s.handleJobList)
	mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleJobStatus)
	mux.HandleFunc("POST /api/v1/campaigns/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /watch/{id}", s.handleWatch)
	mux.HandleFunc("GET /api/v1/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.Handle("GET /metrics", s.tel.Registry.Handler())
	// Method-less fallbacks: the catch-all "/" below would otherwise
	// swallow wrong-method requests as 404s, hiding the Allow set.
	mux.Handle("/api/v1/reports", s.methodNotAllowed("GET, POST"))
	mux.Handle("/api/v1/reports/{hash}/{label}", s.methodNotAllowed("GET"))
	mux.Handle("/api/v1/diff", s.methodNotAllowed("GET"))
	mux.Handle("/api/v1/campaigns", s.methodNotAllowed("GET, POST"))
	mux.Handle("/api/v1/campaigns/{id}", s.methodNotAllowed("GET"))
	mux.Handle("/api/v1/campaigns/{id}/cancel", s.methodNotAllowed("POST"))
	mux.Handle("/api/v1/campaigns/{id}/events", s.methodNotAllowed("GET"))
	mux.Handle("/watch/{id}", s.methodNotAllowed("GET"))
	mux.Handle("/api/v1/trace/{id}", s.methodNotAllowed("GET"))
	mux.Handle("/healthz", s.methodNotAllowed("GET"))
	mux.Handle("/metrics", s.methodNotAllowed("GET"))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		s.error(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("no route %s %s", r.Method, r.URL.Path))
	})
	s.handler = s.instrument(mux)
	return s, nil
}

// Handler returns the service's root handler, ready for an http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// Telemetry returns the metrics set the server records into, the one
// New created and /metrics serves. Embedders use it to read counters
// (the wbserve shutdown summary) or to mount the registry elsewhere.
func (s *Server) Telemetry() *telemetry.Set { return s.tel }

// Shutdown drains the server's asynchronous work: every in-flight
// campaign job is canceled and waited for — bounded by ctx — so each
// records a terminal "canceled" status instead of being lost with the
// process. Call it alongside http.Server.Shutdown; HTTP request draining
// stays the http.Server's business.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.jobs.shutdown(ctx)
}

// methodNotAllowed answers 405 with an Allow header for a route whose
// path exists but whose method patterns did not match.
func (s *Server) methodNotAllowed(allow string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		s.error(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed (allow: %s)", r.Method, allow))
	})
}

// Error codes of the v1 error envelope. Every non-2xx response carries
// {"error": {"code": <one of these>, "message": <human text>}}: the code
// is the stable machine contract (clients switch on it), the message is
// free-form diagnostic prose.
const (
	ErrCodeBadRequest       = "bad_request"        // malformed query/body parameter
	ErrCodeBadSpec          = "bad_spec"           // body parsed but the spec does not validate
	ErrCodeBadScript        = "bad_script"         // a scenario script in the spec fails to compile
	ErrCodeBadLabel         = "bad_label"          // label cannot name a stored run
	ErrCodeLabelTaken       = "label_taken"        // label already names (or is reserved for) a run
	ErrCodeNotFound         = "not_found"          // no such report, diff operand, job or route
	ErrCodeConflict         = "conflict"           // request races the resource's state
	ErrCodeReadOnly         = "read_only"          // write route on a read-only server
	ErrCodeMethodNotAllowed = "method_not_allowed" // route exists, method does not
	ErrCodeShuttingDown     = "shutting_down"      // graceful shutdown refuses new work
	ErrCodeInternal         = "internal"           // unclassified server-side failure
)

// errorEnvelope is the uniform v1 error body.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// error emits the JSON error envelope; every non-2xx response goes
// through it, so all failure bodies share one shape.
func (s *Server) error(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorEnvelope{Error: errorBody{Code: code, Message: msg}})
}

// storeError maps a store failure to a status and envelope code via the
// resultstore sentinels, logging the ones that indicate real trouble. A
// 500 answers with a fixed message: the store's error names its
// directory and files, which only the error-level log record keeps.
func (s *Server) storeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, resultstore.ErrNotFound):
		s.error(w, http.StatusNotFound, ErrCodeNotFound, err.Error())
	case errors.Is(err, resultstore.ErrNeedTwoRuns):
		s.error(w, http.StatusNotFound, ErrCodeNotFound, err.Error())
	case errors.Is(err, resultstore.ErrBadLabel):
		s.error(w, http.StatusBadRequest, ErrCodeBadLabel, err.Error())
	case errors.Is(err, resultstore.ErrLabelTaken):
		s.error(w, http.StatusConflict, ErrCodeLabelTaken, err.Error())
	default:
		s.logger.Error("store failure", "err", err)
		s.error(w, http.StatusInternalServerError, ErrCodeInternal, "store failure; see the server log")
	}
}

// writeJSON emits a 200 JSON body.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data, err := jsonindent.Marshal(v)
	if err != nil {
		s.error(w, http.StatusInternalServerError, ErrCodeInternal, err.Error())
		return
	}
	w.Write(data)
}

// immutable marks a response as permanently cacheable — correct precisely
// because stored runs are content-addressed and never rewritten.
const immutableCacheControl = "public, max-age=31536000, immutable"

// setCacheHeaders emits the validator headers for a successful (or 304)
// response. Only a request that spelled out the full immutable store keys
// gets the year-long immutable lifetime: abbreviated hashes, bare labels
// and the no-ref latest-pair diff are conveniences whose *URL* can come
// to mean a different run as the store grows, so they carry no-cache and
// stay correct through ETag revalidation instead. Errors never come
// through here — a 404 pinned in a shared cache for a year would outlive
// the transient condition that caused it.
func setCacheHeaders(w http.ResponseWriter, etag string, canonical bool) {
	w.Header().Set("ETag", etag)
	if canonical {
		w.Header().Set("Cache-Control", immutableCacheControl)
	} else {
		w.Header().Set("Cache-Control", "no-cache")
	}
}

// etagMatch implements If-None-Match against one strong tag: "*" matches
// anything that exists, otherwise any member of the comma-separated list
// must equal the tag (weak-prefixed members can never strong-match).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, candidate := range strings.Split(header, ",") {
		if strings.TrimSpace(candidate) == etag {
			return true
		}
	}
	return false
}

// --- listing ---

// listItem is one row of the list response: the entry plus its canonical
// ref, ready to paste into the report and diff routes.
type listItem struct {
	resultstore.Entry
	RefStr string `json:"ref"`
}

// located pairs an entry with the store it came from; lookups over
// multiple stores need to remember which one answered.
type located struct {
	entry resultstore.Entry
	store *resultstore.Store
}

// list snapshots the runs of every store that sweep protocol and graph
// (empty matches any), in store order then save order.
func (s *Server) list(protocol, graph string) ([]resultstore.Entry, error) {
	var out []resultstore.Entry
	for _, st := range s.stores {
		entries, err := st.ListFiltered(protocol, graph)
		if err != nil {
			return nil, err
		}
		out = append(out, entries...)
	}
	return out, nil
}

// pageParams parses the ?limit=/?offset= pagination pair. limit 0 (or
// absent) means unpaginated; both must be non-negative integers.
func pageParams(r *http.Request) (limit, offset int, err error) {
	q := r.URL.Query()
	if v := q.Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit < 0 {
			return 0, 0, fmt.Errorf("bad limit %q (want a non-negative integer)", v)
		}
	}
	if v := q.Get("offset"); v != "" {
		if offset, err = strconv.Atoi(v); err != nil || offset < 0 {
			return 0, 0, fmt.Errorf("bad offset %q (want a non-negative integer)", v)
		}
	}
	return limit, offset, nil
}

// pageLink renders one RFC 5988 Link member for the current request with
// a shifted offset, preserving every filter parameter.
func pageLink(r *http.Request, limit, offset int, rel string) string {
	q := r.URL.Query()
	q.Set("limit", strconv.Itoa(limit))
	q.Set("offset", strconv.Itoa(offset))
	return "<" + r.URL.Path + "?" + q.Encode() + `>; rel="` + rel + `"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	specPrefix := q.Get("spec")
	label := q.Get("label")
	mode := q.Get("mode")
	protocol := q.Get("protocol")
	graph := q.Get("graph")
	limit, offset, err := pageParams(r)
	if err != nil {
		s.error(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error())
		return
	}

	all, err := s.list(protocol, graph)
	if err != nil {
		s.storeError(w, err)
		return
	}
	matched := all[:0]
	for _, e := range all {
		if specPrefix != "" && !strings.HasPrefix(e.SpecHash, specPrefix) {
			continue
		}
		if label != "" && e.Label != label {
			continue
		}
		if mode != "" && e.Mode != mode {
			continue
		}
		matched = append(matched, e)
	}
	page := matched
	total := len(matched)
	body := map[string]any{"total": total}
	if limit > 0 {
		// Slice the filtered window and emit RFC 5988 Link headers so
		// clients walk stores beyond memory scale without recomputing
		// offsets themselves.
		if offset > total {
			offset = total
		}
		end := offset + limit
		if end > total {
			end = total
		}
		page = matched[offset:end]
		var links []string
		if end < total {
			links = append(links, pageLink(r, limit, end, "next"))
		}
		if offset > 0 {
			prev := offset - limit
			if prev < 0 {
				prev = 0
			}
			links = append(links, pageLink(r, limit, prev, "prev"))
		}
		if len(links) > 0 {
			w.Header().Set("Link", strings.Join(links, ", "))
		}
		body["limit"], body["offset"] = limit, offset
	}
	items := make([]listItem, len(page))
	for i, e := range page {
		items[i] = listItem{Entry: e, RefStr: e.Ref()}
	}
	body["count"], body["reports"] = len(items), items
	s.writeJSON(w, body)
}

// --- single report ---

// reportFormat negotiates the report representation: an explicit ?format=
// wins, then Accept: text/csv, defaulting to JSON.
func reportFormat(r *http.Request) (format, contentType string, err error) {
	switch f := r.URL.Query().Get("format"); f {
	case "":
		if strings.Contains(r.Header.Get("Accept"), "text/csv") {
			return "csv", "text/csv", nil
		}
		return "json", "application/json", nil
	case "json":
		return "json", "application/json", nil
	case "csv":
		return "csv", "text/csv", nil
	default:
		return "", "", fmt.Errorf("unknown format %q (want json or csv)", f)
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	format, contentType, err := reportFormat(r)
	if err != nil {
		s.error(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error())
		return
	}
	loc, err := s.resolveRef(r.PathValue("hash") + "/" + r.PathValue("label"))
	if err != nil {
		s.storeError(w, err)
		return
	}
	etag := loc.entry.ETag(format)
	canonical := r.PathValue("hash") == loc.entry.SpecHash && r.PathValue("label") == loc.entry.Label
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		// The tag names immutable content: not modified, body never loaded.
		setCacheHeaders(w, etag, canonical)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	rep, err := loc.store.LoadEntry(loc.entry)
	if err != nil {
		s.storeError(w, err)
		return
	}
	var buf bytes.Buffer
	if err := rep.Render(&buf, format); err != nil {
		s.storeError(w, err)
		return
	}
	setCacheHeaders(w, etag, canonical)
	w.Header().Set("Content-Type", contentType)
	w.Write(buf.Bytes())
}

// --- diff ---

// diffFormat negotiates the diff representation: ?format= wins, then
// Accept: application/json, defaulting to the CLI's text rendering.
func diffFormat(r *http.Request) (format, contentType string, err error) {
	switch f := r.URL.Query().Get("format"); f {
	case "":
		if strings.Contains(r.Header.Get("Accept"), "application/json") {
			return "json", "application/json", nil
		}
		return "text", "text/plain; charset=utf-8", nil
	case "json":
		return "json", "application/json", nil
	case "text":
		return "text", "text/plain; charset=utf-8", nil
	default:
		return "", "", fmt.Errorf("unknown format %q (want text or json)", f)
	}
}

// resolveRef resolves a ref — a report route's hash/label pair or a diff
// operand — across the stores, in order. A full hash/label pair is a
// keyed read (resultstore.Resolve); abbreviated hashes and bare labels
// keep working like they do on the CLI.
func (s *Server) resolveRef(ref string) (located, error) {
	for _, st := range s.stores {
		e, err := st.Resolve(ref)
		if err == nil {
			return located{entry: e, store: st}, nil
		}
		if !errors.Is(err, resultstore.ErrNotFound) {
			return located{}, err
		}
	}
	return located{}, fmt.Errorf("%w: %q", resultstore.ErrNotFound, ref)
}

func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	format, contentType, err := diffFormat(r)
	if err != nil {
		s.error(w, http.StatusBadRequest, ErrCodeBadRequest, err.Error())
		return
	}
	q := r.URL.Query()
	oldRef, newRef := q.Get("old"), q.Get("new")
	if (oldRef == "") != (newRef == "") {
		s.error(w, http.StatusBadRequest, ErrCodeBadRequest, "diff wants both old= and new= refs, or neither (latest pair)")
		return
	}
	var oldLoc, newLoc located
	if oldRef == "" {
		// No refs: the latest two runs of the newest spec in the primary
		// store, mirroring `wbcampaign diff` with no arguments.
		oldEntry, newEntry, err := s.stores[0].LatestPair()
		if err != nil {
			s.storeError(w, err)
			return
		}
		oldLoc = located{entry: oldEntry, store: s.stores[0]}
		newLoc = located{entry: newEntry, store: s.stores[0]}
	} else {
		if oldLoc, err = s.resolveRef(oldRef); err != nil {
			s.storeError(w, err)
			return
		}
		if newLoc, err = s.resolveRef(newRef); err != nil {
			s.storeError(w, err)
			return
		}
	}

	// The cache key and the ETag carry the same information — the resolved
	// immutable key pair plus the representation — so a conditional request
	// and a cache hit are both exact.
	key := oldLoc.entry.Ref() + "+" + newLoc.entry.Ref() + ":" + format
	etag := `"diff:` + key + `"`
	canonical := oldRef == oldLoc.entry.Ref() && newRef == newLoc.entry.Ref()
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		setCacheHeaders(w, etag, canonical)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body, hit := s.cache.get(key)
	if !hit {
		oldRep, err := oldLoc.store.LoadEntry(oldLoc.entry)
		if err != nil {
			s.storeError(w, err)
			return
		}
		newRep, err := newLoc.store.LoadEntry(newLoc.entry)
		if err != nil {
			s.storeError(w, err)
			return
		}
		d := resultstore.DiffReports(oldRep, newRep)
		d.OldRef, d.NewRef = oldLoc.entry.Ref(), newLoc.entry.Ref()
		var buf bytes.Buffer
		if err := d.Render(&buf, format); err != nil {
			s.storeError(w, err)
			return
		}
		body = buf.Bytes()
		s.cache.add(key, body)
	}
	setCacheHeaders(w, etag, canonical)
	w.Header().Set("X-Cache", map[bool]string{true: "HIT", false: "MISS"}[hit])
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
}

// --- ingest ---

// maxIngestBytes bounds an ingest body; a full exhaustive report is well
// under a megabyte, so 64 MiB leaves room without inviting memory abuse.
const maxIngestBytes = 64 << 20

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		s.error(w, http.StatusForbidden, ErrCodeReadOnly, "server is read-only; ingest is disabled")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	dec.DisallowUnknownFields()
	var rep campaign.Report
	if err := dec.Decode(&rep); err != nil {
		s.error(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Sprintf("bad report body: %v", err))
		return
	}
	// A report that would not validate as a spec is garbage or from an
	// incompatible revision; reject it before it poisons the store.
	if err := rep.Spec.Normalize().Validate(); err != nil {
		s.error(w, http.StatusBadRequest, ErrCodeBadSpec, fmt.Sprintf("bad report spec: %v", err))
		return
	}
	entry, err := s.stores[0].Save(&rep, r.URL.Query().Get("label"))
	if err != nil {
		s.storeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	data, _ := jsonindent.Marshal(listItem{Entry: entry, RefStr: entry.Ref()})
	w.Write(data)
}

// --- health ---

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{"status": "ok", "stores": len(s.stores)})
}

// handleTrace serves the recorded span tree of a campaign job. Spans are
// kept in a bounded ring, so a trace can be partial: the dropped count
// says how many of its oldest spans have already been overwritten.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	spans, dropped := s.tracer.Trace(id)
	if len(spans) == 0 && dropped == 0 {
		if _, ok := s.jobs.get(id); !ok {
			s.error(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("no trace for job %q", id))
			return
		}
	}
	s.writeJSON(w, map[string]any{"trace": id, "dropped": dropped, "spans": spans})
}
