package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xmlclust"
)

// FuzzServeBodies posts arbitrary bytes as the body of an add and of a
// classify to a small seeded service, built afresh for every input so an
// input fails or passes on its own. Neither request panics or answers 5xx.
// The service maps every error it does not recognise to 400, so a 400 must
// be one the body explains: it does not decode, it holds more than one JSON
// value, its xml field is empty, or its xml does not parse. A refused add leaves the document count as it was,
// and an accepted one reads back under its id. The xml member decodes as
// encoding/json decodes a string: a classify request and struct{ XML string }
// both fail, or both hold the same bytes.
func FuzzServeBodies(f *testing.F) {
	doc := serveDocs(1)[0]
	valid, _ := json.Marshal(addBody{Name: "fuzz", XML: doc})
	for _, seed := range []string{
		string(valid),
		string(valid[:len(valid)/2]),
		string(valid) + "}{trailing",
		`{"name":"empty","xml":""}`,
		`{"name":"broken","xml":"<db><paper>unclosed</db>"}`,
		`{"name":"label","xml":"<db><a>x</a></db>","label":` + strings.Repeat("9", 400) + `}`,
		`{"name":"label","xml":"<db><a>x</a></db>","label":-7}`,
		`{"xml":` + fmt.Sprintf("%q", doc) + `}`,
		``,
		`null`,
		`{"xml":"<a>\"\\\/\b\f\n\r\t\u00e9\u00C9\u4e2d\ud83d\ude00 \ufffd</a>"}`,
		`{"xml":"<a>\ud800 \udc00 \ud800\ud800 \ud83d\u0041 \ud83d</a>"}`,
		"{\"xml\":\"<a>\xff \xc3 \xe2\x82 \xef\xbf\xbd</a>\"}",
		`{"xml":5}`,
		`{"xml":{"a":"<a>x</a>"},"name":"obj"}`,
		`{"xml":["<a>x</a>"]}`,
		`{"xml":true}`,
		`{"xml":"<a>x</a>","xml":null}`,
		`{"XML":"<a>y</a>","label":"3"}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := NewService(serveConfig())
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range serveDocs(2) {
			if _, err := s.AddDocument(context.Background(), fmt.Sprintf("seed%d", i), []byte(d), -1); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Refresh(context.Background()); err != nil {
			t.Fatal(err)
		}
		h := NewHandler(s)
		// explained reports whether the body earns a 400 when decoded into
		// req, whose xml field is xml: the handlers take one JSON value with
		// nothing but white space after it, then require a non-empty xml
		// field that parses.
		explained := func(req any, xml *xmlText) bool {
			dec := json.NewDecoder(bytes.NewReader(body))
			if dec.Decode(req) != nil || len(*xml) == 0 {
				return true
			}
			if _, tail := dec.Token(); tail != io.EOF {
				return true
			}
			_, err := xmlclust.ParseBytes(*xml)
			return err != nil
		}
		var add addDocumentRequest
		var cls classifyRequest
		addRefused, clsRefused := explained(&add, &add.XML), explained(&cls, &cls.XML)

		var got classifyRequest
		var want struct{ XML string }
		gotErr, wantErr := json.Unmarshal(body, &got), json.Unmarshal(body, &want)
		if (gotErr == nil) != (wantErr == nil) || gotErr == nil && string(got.XML) != want.XML {
			t.Fatalf("xml member decoded to %q (%v), encoding/json gives %q (%v)", got.XML, gotErr, want.XML, wantErr)
		}
		do := func(method, path string, body []byte, refused bool) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			if rec.Code >= 500 || rec.Code == http.StatusBadRequest && !refused {
				t.Fatalf("%s %s answered %d to a body the service should take: %s", method, path, rec.Code, rec.Body)
			}
			return rec
		}

		before := s.Stats().Docs
		rec := do(http.MethodPost, "/v1/documents", body, addRefused)
		switch {
		case rec.Code == http.StatusCreated:
			var info DocInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatalf("201 add answered %q: %v", rec.Body, err)
			}
			got := do(http.MethodGet, fmt.Sprintf("/v1/documents/%d", info.ID), nil, false)
			var back DocInfo
			if got.Code != http.StatusOK || json.Unmarshal(got.Body.Bytes(), &back) != nil || back.ID != info.ID || back.Name != info.Name {
				t.Fatalf("document %d added but read back %d: %s", info.ID, got.Code, got.Body)
			}
		case rec.Code/100 == 2:
			t.Fatalf("add answered %d, want 201 or an error", rec.Code)
		case s.Stats().Docs != before:
			t.Fatalf("refused add (%d) changed the document count %d → %d", rec.Code, before, s.Stats().Docs)
		}
		do(http.MethodPost, "/v1/classify", body, clsRefused)
	})
}
