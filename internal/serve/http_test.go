package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

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
			addDocumentRequest{Name: fmt.Sprintf("doc%d", i), XML: doc},
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
		classifyRequest{XML: `<db><report key="rx"><editor>bob dylan</editor><heading>routing wireless networks holdout</heading><lab>NETLAB</lab></report></db>`},
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
	doJSON(t, http.MethodPost, srv.URL+"/v1/documents", addDocumentRequest{Name: "x"}, http.StatusBadRequest, nil)
	doJSON(t, http.MethodPost, srv.URL+"/v1/documents", addDocumentRequest{Name: "x", XML: "<unclosed"}, http.StatusBadRequest, nil)
	doJSON(t, http.MethodPost, srv.URL+"/v1/classify", classifyRequest{XML: "<unclosed"}, http.StatusBadRequest, nil)

	// Unknown / removed / non-integer document ids.
	doJSON(t, http.MethodGet, srv.URL+"/v1/documents/5", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodDelete, srv.URL+"/v1/documents/5", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, srv.URL+"/v1/documents/abc", nil, http.StatusBadRequest, nil)
	var info DocInfo
	doJSON(t, http.MethodPost, srv.URL+"/v1/documents",
		addDocumentRequest{Name: "d", XML: "<a><b>text</b></a>"}, http.StatusCreated, &info)
	doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/documents/%d", srv.URL, info.ID), nil, http.StatusOK, nil)
	doJSON(t, http.MethodDelete, fmt.Sprintf("%s/v1/documents/%d", srv.URL, info.ID), nil, http.StatusGone, nil)

	// Bad cluster id.
	doJSON(t, http.MethodGet, srv.URL+"/v1/clusters/abc", nil, http.StatusBadRequest, nil)
	// The trash alias works.
	doJSON(t, http.MethodGet, srv.URL+"/v1/clusters/trash", nil, http.StatusOK, nil)
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
		addDocumentRequest{Name: "after", XML: "<a><b>still serving</b></a>"}, http.StatusCreated, &info)
	doJSON(t, http.MethodGet, fmt.Sprintf("%s/v1/documents/%d", srv.URL, info.ID), nil, http.StatusOK, nil)
}
