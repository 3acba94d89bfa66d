#!/usr/bin/env sh
# Walkthrough: populate a result store with two campaign runs, serve it
# with wbserve, and consume it over HTTP — list, report (JSON + CSV),
# cached diff with a 304 conditional replay, and a push from a second
# campaign run. Run from the repository root:
#
#	sh examples/serve/demo.sh
set -eu

DIR=$(mktemp -d)
ADDR=127.0.0.1:8392
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$DIR"' EXIT

echo "== two runs of the same campaign into a store =="
go run ./cmd/wbcampaign run -spec examples/campaigns/smoke.json \
	-store -dir "$DIR/store" -label demo-a -quiet
go run ./cmd/wbcampaign run -spec examples/campaigns/smoke.json \
	-store -dir "$DIR/store" -label demo-b -quiet

echo "== serve the store =="
# Build the real binary: backgrounding `go run` would background the
# wrapper, and the EXIT trap would kill it while orphaning the server
# itself on $ADDR. The server's own stderr goes to a log file so
# backgrounding never holds this script's output pipe open.
go build -o "$DIR/wbserve" ./cmd/wbserve
"$DIR/wbserve" -dir "$DIR/store" -addr "$ADDR" >"$DIR/serve.log" 2>&1 &
SERVE_PID=$!
curl --retry 20 --retry-connrefused --retry-delay 1 -fsS "http://$ADDR/healthz"

echo "== list stored runs (filterable: ?spec= ?label= ?protocol= ?graph= ?mode=) =="
curl -fsS "http://$ADDR/api/v1/reports"
HASH=$(curl -fsS "http://$ADDR/api/v1/reports" | sed -n 's/.*"spec_hash": "\([0-9a-f]*\)".*/\1/p' | head -1)

echo "== one report, as JSON then as CSV =="
curl -fsS "http://$ADDR/api/v1/reports/$HASH/demo-a" | head -20
curl -fsS "http://$ADDR/api/v1/reports/$HASH/demo-a?format=csv" | head -4

echo "== diff the two runs; the second request hits the LRU =="
curl -fsS -D "$DIR/h1" "http://$ADDR/api/v1/diff?old=demo-a&new=demo-b"
curl -fsS -D "$DIR/h2" -o /dev/null "http://$ADDR/api/v1/diff?old=demo-a&new=demo-b"
grep -i '^x-cache' "$DIR/h1" "$DIR/h2"

echo "== responses are immutable: replaying the ETag answers 304 =="
ETAG=$(sed -n 's/^[Ee][Tt][Aa][Gg]: //p' "$DIR/h2" | tr -d '\r')
curl -sS -o /dev/null -w "If-None-Match: %{http_code}\n" \
	-H "If-None-Match: $ETAG" "http://$ADDR/api/v1/diff?old=demo-a&new=demo-b"

echo "== a third run published straight into the served store =="
go run ./cmd/wbcampaign run -spec examples/campaigns/smoke.json \
	-push "http://$ADDR" -label demo-pushed -quiet
curl -fsS "http://$ADDR/api/v1/reports?label=demo-pushed"

echo "== a fourth run executed ON the server: the v1 job API =="
go run ./cmd/wbcampaign run -spec examples/campaigns/smoke.json \
	-remote "http://$ADDR" -label demo-job
curl -fsS "http://$ADDR/api/v1/campaigns"
curl -fsS "http://$ADDR/api/v1/reports?label=demo-job"

echo "== realtime: the job's per-cell SSE stream (watch it live at /watch/{id}) =="
JOB=$(curl -fsS -X POST --data-binary @examples/campaigns/smoke.json \
	"http://$ADDR/api/v1/campaigns?label=demo-live" \
	| sed -n 's/.*"id": *"\([^"]*\)".*/\1/p')
echo "-- following job $JOB; a browser at http://$ADDR/watch/$JOB sees the same sweep --"
# -N streams frames as cells complete; the terminal state frame ends it.
curl -fsSN "http://$ADDR/api/v1/campaigns/$JOB/events" | head -40
echo "-- reconnecting with Last-Event-ID replays only what was missed --"
curl -fsSN -H 'Last-Event-ID: 1' "http://$ADDR/api/v1/campaigns/$JOB/events" | head -12

echo "== listings paginate for stores beyond memory scale =="
curl -fsSD "$DIR/hpage" "http://$ADDR/api/v1/reports?limit=2" >/dev/null
grep -i '^link' "$DIR/hpage"

echo "== a traced exhaustive job: fetch its span tree with -trace =="
go run ./cmd/wbcampaign run -spec examples/campaigns/exhaustive.json \
	-remote "http://$ADDR" -label demo-traced -trace "$DIR/trace.json" -quiet
if command -v jq >/dev/null 2>&1; then
	echo "-- top 3 slowest cells, with memo hit rates --"
	jq -r '[.spans[] | select(.name == "cell")]
		| sort_by(-.attrs.wall) | .[:3][]
		| "\(.attrs.protocol)/\(.attrs.graph) n=\(.attrs.n): \(.attrs.wall)s, memo hit rate \(.attrs.memo_hit_rate)"' \
		"$DIR/trace.json"
else
	echo "(jq not installed; raw span dump in $DIR/trace.json skipped)"
fi

echo "== request, diff-cache, job and event-stream counters (Prometheus text) =="
curl -fsS "http://$ADDR/metrics" | grep -E '^wb_(http_requests|diff_cache|jobs|sse)'
