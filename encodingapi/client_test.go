package encodingapi_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/encodingapi"
	"repro/internal/corpus"
	"repro/internal/jobs"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// startService spins up a real service instance behind httptest and
// returns a client pointed at it.
func startService(t *testing.T, cfg server.Config) *encodingapi.Client {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return encodingapi.NewClient(ts.URL)
}

const feasibleConstraints = "face a b\nface b c\n"

func TestClientEncodeRoundTrip(t *testing.T) {
	c := startService(t, server.Config{})
	res, err := c.Encode(context.Background(), encodingapi.EncodeRequest{
		Constraints: feasibleConstraints,
	})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if !res.Feasible || res.Bits <= 0 || len(res.Codes) == 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
	// Every code must be a binary word of the reported width.
	for sym, code := range res.Codes {
		if len(code) != res.Bits || strings.Trim(code, "01") != "" {
			t.Fatalf("symbol %q: bad code %q for %d bits", sym, code, res.Bits)
		}
	}
}

func TestClientRemoteInfeasibleUnwraps(t *testing.T) {
	c := startService(t, server.Config{})
	// dom a > b and dom b > a cannot both hold.
	_, err := c.Encode(context.Background(), encodingapi.EncodeRequest{
		Constraints: "dom a > b\ndom b > a\n",
	})
	if err == nil {
		t.Fatal("expected infeasible error")
	}
	var re *encodingapi.RemoteError
	if !errors.As(err, &re) || re.Status != http.StatusUnprocessableEntity {
		t.Fatalf("expected 422 RemoteError, got %v", err)
	}
	// The remote error must behave like the in-process one.
	if !errors.Is(err, encodingapi.ErrInfeasible) {
		t.Fatalf("errors.Is(err, ErrInfeasible) = false for %v", err)
	}
	ie, ok := encodingapi.AsInfeasible(err)
	if !ok {
		t.Fatalf("AsInfeasible failed for %v", err)
	}
	if ie.Conflict == nil || len(ie.Conflict.Dominances) == 0 {
		t.Fatalf("expected reconstructed conflict set, got %+v", ie)
	}
}

func TestClientBatchDedupesAndReportsPerItem(t *testing.T) {
	c := startService(t, server.Config{})
	items := []encodingapi.EncodeRequest{
		{Constraints: feasibleConstraints},
		{Constraints: "dom a > b\ndom b > a\n"}, // infeasible
		{Constraints: feasibleConstraints},      // duplicate of item 0
	}
	res, err := c.EncodeBatch(context.Background(), encodingapi.BatchRequest{Items: items})
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	if len(res.Items) != 3 {
		t.Fatalf("expected 3 item results, got %d", len(res.Items))
	}
	if res.UniqueItems != 2 || res.Deduped != 1 {
		t.Fatalf("expected 2 unique / 1 deduped, got %d / %d", res.UniqueItems, res.Deduped)
	}
	if err := res.Items[0].Err(); err != nil {
		t.Fatalf("item 0: %v", err)
	}
	if err := res.Items[1].Err(); !errors.Is(err, encodingapi.ErrInfeasible) {
		t.Fatalf("item 1: expected infeasible, got %v", err)
	}
	if res.Items[2].Result == nil || res.Items[0].Result == nil ||
		res.Items[2].Result.Text != res.Items[0].Result.Text {
		t.Fatal("duplicate item should carry the same encoding as its leader")
	}
}

func TestClientJobLifecycle(t *testing.T) {
	c := startService(t, server.Config{})
	// The Jobs listing below requires a credential (anonymous jobs are
	// reachable only by id).
	c.APIKey = "lifecycle-tenant"
	ctx := context.Background()

	job, err := c.Submit(ctx, encodingapi.JobRequest{
		Encode: &encodingapi.EncodeRequest{Constraints: feasibleConstraints},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.ID == "" || job.State.Terminal() {
		t.Fatalf("expected queued job with id, got %+v", job)
	}

	done, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.State != encodingapi.JobDone {
		t.Fatalf("expected done, got %s (err %v)", done.State, done.Err())
	}
	if done.Result == nil || !done.Result.Feasible {
		t.Fatalf("expected feasible result, got %+v", done.Result)
	}

	// The async answer must match the synchronous one.
	sync, err := c.Encode(ctx, encodingapi.EncodeRequest{Constraints: feasibleConstraints})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if done.Result.Text != sync.Text {
		t.Fatalf("async text %q != sync text %q", done.Result.Text, sync.Text)
	}

	// Poll and Jobs both see the terminal job.
	polled, err := c.Poll(ctx, job.ID)
	if err != nil || polled.State != encodingapi.JobDone {
		t.Fatalf("Poll: %+v, %v", polled, err)
	}
	list, err := c.Jobs(ctx)
	if err != nil || len(list) != 1 || list[0].ID != job.ID {
		t.Fatalf("Jobs: %+v, %v", list, err)
	}

	// Cancel on a terminal job is an idempotent no-op.
	after, err := c.Cancel(ctx, job.ID)
	if err != nil || after.State != encodingapi.JobDone {
		t.Fatalf("Cancel after done: %+v, %v", after, err)
	}
}

// TestClientPipelineTypedReport: the typed report Client.Pipeline decodes
// is pipeline.Run's report on the same corpus machine, and a pipeline job
// settles in jobs.Done with the same typed report.
func TestClientPipelineTypedReport(t *testing.T) {
	const dir = "../testdata/corpus"
	machines, err := corpus.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := corpus.Find(machines, "dk27")
	if !ok {
		t.Fatal("corpus machine dk27 missing")
	}
	text, err := os.ReadFile(filepath.Join(dir, m.File))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := pipeline.Run(ctx, m.FSM, pipeline.Options{})
	if err != nil {
		t.Fatalf("pipeline.Run: %v", err)
	}

	c := startService(t, server.Config{})
	res, err := c.Pipeline(ctx, encodingapi.PipelineRequest{Kiss: string(text)})
	if err != nil {
		t.Fatalf("Pipeline: %v", err)
	}
	check := func(label string, rep *encodingapi.PipelineReport) {
		t.Helper()
		if rep == nil || rep.Replay == nil {
			t.Fatalf("%s: no typed report or replay verdict: %+v", label, rep)
		}
		if rep.Strategy != want.Strategy || rep.Bits != want.Bits || rep.Replay.OK != want.Replay.OK || !rep.Replay.OK {
			t.Fatalf("%s: strategy %q, %d bits, replay ok %v; pipeline.Run says %q, %d bits, replay ok %v",
				label, rep.Strategy, rep.Bits, rep.Replay.OK, want.Strategy, want.Bits, want.Replay.OK)
		}
	}
	check("sync", res.Pipeline)

	job, err := c.Submit(ctx, encodingapi.JobRequest{Pipeline: &encodingapi.PipelineRequest{Kiss: string(text)}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.State != jobs.Done || done.Result == nil {
		t.Fatalf("job: state %s, result %v (err %v)", done.State, done.Result, done.Err())
	}
	check("job", done.Result.Pipeline)
}

func TestClientJobNotFoundAndTenantIsolation(t *testing.T) {
	c := startService(t, server.Config{})
	ctx := context.Background()

	if _, err := c.Poll(ctx, "j-doesnotexist"); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("expected 404 for unknown id, got %v", err)
	}

	c.APIKey = "tenant-a"
	job, err := c.Submit(ctx, encodingapi.JobRequest{
		Encode: &encodingapi.EncodeRequest{Constraints: feasibleConstraints},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	other := *c
	other.APIKey = "tenant-b"
	if _, err := other.Poll(ctx, job.ID); !isStatus(err, http.StatusNotFound) {
		t.Fatalf("expected 404 across tenants, got %v", err)
	}
}

func isStatus(err error, status int) bool {
	var re *encodingapi.RemoteError
	return errors.As(err, &re) && re.Status == status
}

// TestEndToEndBatchAsyncSmoke is the `make test-server` e2e check: one
// real service instance driven through the public client across the
// whole v1 surface — batch with duplicates (one solve per canonical
// problem, asserted via /v1/stats), an async job whose result matches
// the synchronous bytes, and a long-poll that resolves it.
func TestEndToEndBatchAsyncSmoke(t *testing.T) {
	s := server.New(server.Config{CacheEntries: -1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	c := encodingapi.NewClient(ts.URL)
	ctx := context.Background()

	// Batch: 5 items, 2 canonical problems → exactly 2 solves.
	const otherConstraints = "face p q\nface q r\n"
	batch, err := c.EncodeBatch(ctx, encodingapi.BatchRequest{Items: []encodingapi.EncodeRequest{
		{Constraints: feasibleConstraints},
		{Constraints: otherConstraints},
		{Constraints: feasibleConstraints},
		{Constraints: otherConstraints},
		{Constraints: feasibleConstraints},
	}})
	if err != nil {
		t.Fatalf("EncodeBatch: %v", err)
	}
	if batch.UniqueItems != 2 || batch.Deduped != 3 {
		t.Fatalf("unique = %d, deduped = %d; want 2, 3", batch.UniqueItems, batch.Deduped)
	}
	for i, it := range batch.Items {
		if err := it.Err(); err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
	}
	if st := s.Stats(); st.Solves != 2 {
		t.Fatalf("solves = %d, want exactly 2 (one per canonical hash)", st.Solves)
	}

	// Async: submit → queued/202 → long-poll → done, bytes match sync.
	sync, err := c.Encode(ctx, encodingapi.EncodeRequest{Constraints: feasibleConstraints})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	job, err := c.Submit(ctx, encodingapi.JobRequest{
		Encode: &encodingapi.EncodeRequest{Constraints: feasibleConstraints},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	done, err := c.Wait(ctx, job.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if done.State != encodingapi.JobDone || done.Result == nil {
		t.Fatalf("job: %+v (err %v)", done, done.Err())
	}
	if done.Result.Text != sync.Text {
		t.Fatalf("async text %q != sync text %q", done.Result.Text, sync.Text)
	}

	// The stats surface reflects the whole session.
	st := s.Stats()
	if st.BatchRequests != 1 || st.BatchItems != 5 || st.BatchDeduped != 3 ||
		st.JobsSubmitted != 1 || st.JobsDone != 1 {
		t.Fatalf("stats: %+v", st)
	}
}
