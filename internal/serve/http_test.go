package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

// addBody and classifyBody are request bodies as a client marshals them.
type addBody struct {
	Name  string `json:"name"`
	XML   string `json:"xml"`
	Label *int   `json:"label"`
}

type classifyBody struct {
	XML string `json:"xml"`
}

func httpService(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s, err := NewService(serveConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(s))
	t.Cleanup(srv.Close)
	return s, srv
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
}

func TestHTTPEndToEnd(t *testing.T) {
	_, srv := httpService(t)
	docs := serveDocs(3)

	// Ingest over HTTP.
	for i, doc := range docs {
		var info DocInfo
		doJSON(t, http.MethodPost, srv.URL+"/v1/documents",
			addBody{Name: fmt.Sprintf("doc%d", i), XML: doc},
			http.StatusCreated, &info)
		if info.ID != i {
			t.Fatalf("doc %d got id %d", i, info.ID)
		}
	}

	// Force a refresh, then stats must show a clustered collection.
	var st Stats
	doJSON(t, http.MethodPost, srv.URL+"/v1/refresh", nil, http.StatusOK, &st)
	if st.Refreshes != 1 || st.LiveDocs != 6 || st.Trash != 0 {
		t.Fatalf("stats after refresh: %+v", st)
	}

	// Classify a held-out report.
	var cl classifyResponse
	doJSON(t, http.MethodPost, srv.URL+"/v1/classify",
		classifyBody{XML: `<db><report key="rx"><editor>bob dylan</editor><heading>routing wireless networks holdout</heading><lab>NETLAB</lab></report></db>`},
		http.StatusOK, &cl)
	var report DocInfo
	doJSON(t, http.MethodGet, srv.URL+"/v1/documents/3", nil, http.StatusOK, &report) // doc 3 is a report
	if cl.Cluster != report.Cluster {
		t.Fatalf("held-out report classified to %d, stored reports sit in %d", cl.Cluster, report.Cluster)
	}

	// Query the report cluster.
	var q clusterResponse
	doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/clusters/%d", srv.URL, report.Cluster), nil, http.StatusOK, &q)
	if len(q.Docs) != 3 {
		t.Fatalf("cluster %d holds %d docs, want 3: %+v", report.Cluster, len(q.Docs), q.Docs)
	}

	// Remove a document, run maintenance via HTTP.
	var removed DocInfo
	doJSON(t, http.MethodDelete, srv.URL+"/v1/documents/0", nil, http.StatusOK, &removed)
	if !removed.Removed {
		t.Fatalf("delete response: %+v", removed)
	}
	var rs RoundStats
	doJSON(t, http.MethodPost, srv.URL+"/v1/maintenance", nil, http.StatusOK, &rs)
	if rs.Drift == 0 {
		t.Fatalf("maintenance after removal reported no drift: %+v", rs)
	}

	// Listing includes the tombstone.
	var all []DocInfo
	doJSON(t, http.MethodGet, srv.URL+"/v1/documents", nil, http.StatusOK, &all)
	if len(all) != 6 || !all[0].Removed {
		t.Fatalf("document listing: %+v", all)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, srv := httpService(t)

	// Malformed JSON, empty XML, broken XML.
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/documents", bytes.NewReader([]byte("{not json")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
	doJSON(t, http.MethodPost, srv.URL+"/v1/documents", addBody{Name: "x"}, http.StatusBadRequest, nil)
	doJSON(t, http.MethodPost, srv.URL+"/v1/documents", addBody{Name: "x", XML: "<unclosed"}, http.StatusBadRequest, nil)
	doJSON(t, http.MethodPost, srv.URL+"/v1/classify", classifyBody{XML: "<unclosed"}, http.StatusBadRequest, nil)

	// Unknown / removed / non-integer document ids.
	doJSON(t, http.MethodGet, srv.URL+"/v1/documents/5", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodDelete, srv.URL+"/v1/documents/5", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, srv.URL+"/v1/documents/abc", nil, http.StatusBadRequest, nil)
	var info DocInfo
	doJSON(t, http.MethodPost, srv.URL+"/v1/documents",
		addBody{Name: "d", XML: "<a><b>text</b></a>"}, http.StatusCreated, &info)
	doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/documents/%d", srv.URL, info.ID), nil, http.StatusOK, nil)
	doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/documents/%d", srv.URL, info.ID), nil, http.StatusGone, nil)

	// No xml, or a null one, right after a request that had one: the pooled
	// body must not lend the last request's document.
	for path, ok := range map[string]int{"/v1/documents": http.StatusCreated, "/v1/classify": http.StatusOK} {
		for _, body := range []string{`{"name":"y"}`, `{"xml":null}`} {
			doJSON(t, http.MethodPost, srv.URL+path, addBody{Name: "z", XML: "<a><b>text</b></a>"}, ok, nil)
			resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("POST %s %s after a body with xml: status %d, want 400", path, body, resp.StatusCode)
			}
		}
	}

	// Bad cluster id.
	doJSON(t, http.MethodGet, srv.URL+"/v1/clusters/abc", nil, http.StatusBadRequest, nil)
	// The trash alias works.
	doJSON(t, http.MethodGet, srv.URL+"/v1/clusters/trash", nil, http.StatusOK, nil)
}

// TestHTTPTrailingBytes: a body that holds a valid request followed by
// anything but white space is refused with 400 by add and by classify, as
// more than one JSON value, and the add leaves the corpus as it was;
// trailing white space is fine.
func TestHTTPTrailingBytes(t *testing.T) {
	s, srv := httpService(t)
	valid, err := json.Marshal(addBody{Name: "d", XML: "<a><b>text</b></a>"})
	if err != nil {
		t.Fatal(err)
	}
	var msg []byte
	post := func(path, body string) int {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, path := range []string{"/v1/documents", "/v1/classify"} {
		for _, tail := range []string{"}{trailing", " {}", "x"} {
			before := s.Stats().Docs
			if code := post(path, string(valid)+tail); code != http.StatusBadRequest || !bytes.Contains(msg, []byte("more than one JSON value")) {
				t.Errorf("POST %s with %q after the request: status %d (%s), want 400 for more than one JSON value", path, tail, code, msg)
			}
			if s.Stats().Docs != before {
				t.Errorf("POST %s with %q after the request changed the document count", path, tail)
			}
		}
	}
	if code := post("/v1/documents", string(valid)+" \n"); code != http.StatusCreated {
		t.Errorf("an add followed by white space: status %d, want 201", code)
	}
}

// TestHTTPDepthBomb sends 2.2 M nested elements — 15.4 MB, under the body
// cap, so the request reaches the parser — to both endpoints that parse.
// A tree that deep would overflow the stack of the first recursive walk,
// which no recover catches; the parser must refuse it and the service must
// keep serving.
func TestHTTPDepthBomb(t *testing.T) {
	_, srv := httpService(t)
	const levels = 2_200_000
	// Built by hand: json.Marshal would escape every '<' to six bytes and
	// push the body over the cap.
	var body bytes.Buffer
	body.WriteString(`{"name":"bomb","xml":"`)
	body.WriteString(strings.Repeat("<a>", levels))
	body.WriteString("x")
	body.WriteString(strings.Repeat("</a>", levels))
	body.WriteString(`"}`)
	if body.Len() >= maxBodyBytes {
		t.Fatalf("bomb is %d bytes, not under the %d body cap", body.Len(), maxBodyBytes)
	}
	for _, path := range []string{"/v1/documents", "/v1/classify"} {
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body.Bytes()))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d (want 400): %s", path, resp.StatusCode, raw)
		}
	}
	var info DocInfo
	doJSON(t, http.MethodPost, srv.URL+"/v1/documents",
		addBody{Name: "after", XML: "<a><b>still serving</b></a>"}, http.StatusCreated, &info)
	doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/documents/%d", srv.URL, info.ID), nil, http.StatusOK, nil)
}

// TestServeRequestAllocations: once the handler's pool is warm, decoding a
// classify body allocates nothing that grows with the body. The body is read
// into a pooled buffer and its xml member unquoted into another, so a
// 256 KiB body costs the bytes a 1 KiB body costs, within a small constant.
// And a warm classify stages its unseen items into the records the pooled
// overlay kept: per unseen item it allocates what extraction and weighing
// do (4 objects), where a new *Item each made it 5. GOMAXPROCS 1 and no
// collection keep the pools' one buffer and overlay where Get looks first.
func TestServeRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drains sync.Pool at random; the guard runs without it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	h := &handler{bodies: sync.Pool{New: func() any { return new(body) }}}
	cost := func(size int) uint64 {
		xml := "<a>" + strings.Repeat("<b>x &amp; y é</b>\n", size/24) + "</a>"
		raw, err := json.Marshal(classifyBody{XML: xml}) // escapes <, > and & as \u003c …
		if err != nil {
			t.Fatal(err)
		}
		rd := bytes.NewReader(raw)
		r := httptest.NewRequest(http.MethodPost, "/v1/classify", rd)
		w := httptest.NewRecorder()
		decodeOnce := func() {
			rd.Reset(raw)
			b := h.bodies.Get().(*body)
			var req classifyRequest
			if !decode(w, r, b, &req, &req.XML) || string(req.XML) != xml {
				t.Fatalf("a %d-byte body did not decode to its document: %s", len(raw), w.Body)
			}
			h.release(b)
		}
		decodeOnce()
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decodeOnce()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, large := cost(1<<10), cost(256<<10)
	t.Logf("warm decode of a classify body: %d B for 1 KiB, %d B for 256 KiB", small, large)
	if large > small+256 {
		t.Fatalf("a 256 KiB body's decode allocates %d B, a 1 KiB body's %d B: the decode allocates with the body", large, small)
	}

	s, _ := httpService(t)
	addAll(t, s, serveDocs(4))
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	mallocs := func(unseen int) float64 {
		var attrs strings.Builder
		for i := range unseen {
			fmt.Fprintf(&attrs, ` a%d="unseen%d"`, i, i) // an item at a path of its own
		}
		doc := []byte(`<db><paper key="q"` + attrs.String() + `><writer>alice cooper</writer></paper></db>`)
		return testing.AllocsPerRun(10, func() {
			if _, err := s.Classify(context.Background(), doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := mallocs(16), mallocs(512)
	if perItem := (many - few) / (512 - 16); perItem > 4.5 {
		t.Fatalf("a warm classify allocates %.2f objects per unseen item (%.0f for 16, %.0f for 512): the overlay allocates its records again", perItem, few, many)
	}
}

// TestHTTPConcurrentAddClassify posts adds and classifies from several
// goroutines at once (run it with -race): pooled request buffers pass from
// one request to the next, and no request may read another's bytes. Every
// classify lands in its document's cluster, and every added document's
// retained copy is the document its request carried.
func TestHTTPConcurrentAddClassify(t *testing.T) {
	s, srv := httpService(t)
	seed := serveDocs(4)
	addAll(t, s, seed)
	if err := s.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
	post := func(path string, body any) (int, []byte) {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, out
	}
	// Bodies of many sizes, so a short body follows a long one in a buffer.
	late := serveDocs(16)
	lateDoc := func(i int) string { return late[i] + strings.Repeat(" ", 37*i) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := g; i < len(late); i += 4 {
				if code, out := post("/v1/documents", addBody{Name: fmt.Sprint("late", i), XML: lateDoc(i)}); code != http.StatusCreated {
					t.Errorf("add late%d: %d %s", i, code, out)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := range 12 {
				j := (g + i) % len(seed)
				code, out := post("/v1/classify", classifyBody{XML: seed[j] + strings.Repeat("\n", 101*i)})
				var res classifyResponse
				if err := json.Unmarshal(out, &res); code != http.StatusOK || err != nil {
					t.Errorf("classify: %d %s", code, out)
				} else if info, _ := s.Document(j); res.Cluster != info.Cluster {
					t.Errorf("document %d classified to %d, it sits in %d", j, res.Cluster, info.Cluster)
				}
			}
		}()
	}
	wg.Wait()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rec := range s.docs[len(seed):] {
		var i int
		if _, err := fmt.Sscanf(rec.name, "late%d", &i); err != nil || string(rec.xml) != lateDoc(i) {
			t.Errorf("document %d (%s) kept %q", rec.id, rec.name, rec.xml)
		}
	}
	if n := len(s.docs) - len(seed); n != len(late) {
		t.Errorf("%d documents added, want %d", n, len(late))
	}
}
