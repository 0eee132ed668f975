package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"xmlclust"
)

// maxBodyBytes bounds request bodies (raw XML documents are small compared
// to the corpora the paper serves; 16 MiB is generous).
const maxBodyBytes = 16 << 20

// maxPooledBytes bounds the buffers a handler keeps for later requests, so
// one large body does not pin its size for the life of the process.
const maxPooledBytes = 1 << 20

// NewHandler exposes a Service over HTTP:
//
//	POST   /v1/documents        {"name","xml","label"?} → DocInfo (online add)
//	GET    /v1/documents        → [DocInfo]
//	GET    /v1/documents/{id}   → DocInfo
//	DELETE /v1/documents/{id}   → DocInfo (tombstoned)
//	POST   /v1/classify         {"xml"} → classification (read-only)
//	GET    /v1/clusters/{id}    → {"cluster","docs"} ("trash" or -1 queries the trash)
//	GET    /v1/stats            → Stats
//	POST   /v1/maintenance      → RoundStats (one maintenance round now)
//	POST   /v1/refresh          → Stats (forced representative refresh)
//	GET    /healthz             → 200 "ok"
//
// Errors are JSON {"error": "..."}: 400 for malformed requests or XML, 404
// for unknown documents, 410 for removed ones, 503 when a request's work
// was canceled mid-flight.
func NewHandler(s *Service) http.Handler {
	h := &handler{s: s, bodies: sync.Pool{New: func() any { return new(body) }}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("POST /v1/documents", h.addDocument)
	mux.HandleFunc("GET /v1/documents", h.listDocuments)
	mux.HandleFunc("GET /v1/documents/{id}", h.getDocument)
	mux.HandleFunc("DELETE /v1/documents/{id}", h.removeDocument)
	mux.HandleFunc("POST /v1/classify", h.classify)
	mux.HandleFunc("GET /v1/clusters/{id}", h.queryCluster)
	mux.HandleFunc("GET /v1/stats", h.stats)
	mux.HandleFunc("POST /v1/maintenance", h.maintenance)
	mux.HandleFunc("POST /v1/refresh", h.refresh)
	return mux
}

type handler struct {
	s      *Service
	bodies sync.Pool // *body
}

// body is one request's pooled scratch: the bytes of the request body, and
// the xml member unquoted from them.
type body struct {
	raw []byte
	xml xmlText
}

func (h *handler) release(b *body) {
	if cap(b.raw) <= maxPooledBytes && cap(b.xml) <= maxPooledBytes {
		h.bodies.Put(b)
	}
}

type addDocumentRequest struct {
	Name  string  `json:"name"`
	XML   xmlText `json:"xml"`
	Label *int    `json:"label"`
}

type classifyRequest struct {
	XML xmlText `json:"xml"`
}

// xmlText is a request's xml member: the JSON string unquoted into bytes
// as encoding/json unquotes a string, with no string built. It decodes into
// its own storage, so a pooled body reuses it.
type xmlText []byte

func (t *xmlText) UnmarshalJSON(data []byte) error {
	out, ok := appendUnquoted((*t)[:0], data)
	if !ok { // null, or no string: as encoding/json decodes it into a string
		var str string
		return json.Unmarshal(data, &str)
	}
	*t = out
	return nil
}

// appendUnquoted appends the JSON string literal lit, unquoted, to dst:
// escapes decoded, and an unpaired surrogate escape or a byte that is not
// UTF-8 turned into U+FFFD, as encoding/json does. It reports false when
// lit is not a string literal.
func appendUnquoted(dst, lit []byte) ([]byte, bool) {
	if len(lit) < 2 || lit[0] != '"' || lit[len(lit)-1] != '"' {
		return dst, false
	}
	s := lit[1 : len(lit)-1]
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c < ' ' || c == '"' || c == '\\' && i+1 == len(s):
			return dst, false
		case c < utf8.RuneSelf && c != '\\':
			dst = append(dst, c)
			i++
		case c >= utf8.RuneSelf: // DecodeRune reads a byte that is not UTF-8 as U+FFFD
			r, n := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		case s[i+1] == 'u':
			r := hex4(s[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if r = utf16.DecodeRune(r, hex4(s[i:])); r != unicode.ReplacementChar {
					i += 6 // a valid pair
				}
			}
			dst = utf8.AppendRune(dst, r)
		default:
			x := strings.IndexByte("\"\\/bfnrt", s[i+1])
			if x < 0 {
				return dst, false
			}
			dst = append(dst, "\"\\/\b\f\n\r\t"[x])
			i += 2
		}
	}
	return dst, true
}

// hex4 decodes the escape \uXXXX at the start of s, or returns −1.
func hex4(s []byte) rune {
	var b [2]byte
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	if _, err := hex.Decode(b[:], s[2:6]); err != nil {
		return -1
	}
	return rune(b[0])<<8 | rune(b[1])
}

type classifyResponse struct {
	Cluster int       `json:"cluster"`
	Assign  []int     `json:"assign"`
	Sims    []float64 `json:"sims"`
}

type clusterResponse struct {
	Cluster int       `json:"cluster"`
	Docs    []DocInfo `json:"docs"`
}

func (h *handler) addDocument(w http.ResponseWriter, r *http.Request) {
	b := h.bodies.Get().(*body)
	defer h.release(b)
	var req addDocumentRequest
	if !decode(w, r, b, &req, &req.XML) {
		return
	}
	if len(req.XML) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty xml field"))
		return
	}
	label := -1
	if req.Label != nil {
		label = *req.Label
	}
	info, err := h.s.AddDocument(r.Context(), req.Name, req.XML, label)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (h *handler) listDocuments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.s.Documents())
}

func (h *handler) getDocument(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	info, err := h.s.Document(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *handler) removeDocument(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r)
	if !ok {
		return
	}
	info, err := h.s.RemoveDocument(id)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (h *handler) classify(w http.ResponseWriter, r *http.Request) {
	b := h.bodies.Get().(*body)
	defer h.release(b)
	var req classifyRequest
	if !decode(w, r, b, &req, &req.XML) {
		return
	}
	if len(req.XML) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty xml field"))
		return
	}
	res, err := h.s.Classify(r.Context(), req.XML)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, classifyResponse{Cluster: res.Cluster, Assign: res.Assign, Sims: res.Sims})
}

func (h *handler) queryCluster(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	var cl int
	if raw == "trash" {
		cl = xmlclust.TrashCluster
	} else {
		var err error
		cl, err = strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, errors.New("serve: cluster id must be an integer or \"trash\""))
			return
		}
	}
	writeJSON(w, http.StatusOK, clusterResponse{Cluster: cl, Docs: h.s.QueryCluster(cl)})
}

func (h *handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, h.s.Stats())
}

func (h *handler) maintenance(w http.ResponseWriter, r *http.Request) {
	rs, err := h.s.MaintenanceRound(r.Context())
	if err != nil {
		writeError(w, serverStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, rs)
}

func (h *handler) refresh(w http.ResponseWriter, r *http.Request) {
	if err := h.s.Refresh(r.Context()); err != nil {
		writeError(w, serverStatusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, h.s.Stats())
}

// serverStatusFor classifies failures of server-driven work (maintenance,
// refresh), where the request body cannot be at fault.
func serverStatusFor(err error) int {
	if errors.Is(err, xmlclust.ErrCanceled) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func pathID(w http.ResponseWriter, r *http.Request) (int, bool) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, errors.New("serve: document id must be an integer"))
		return 0, false
	}
	return id, true
}

// decode reads a body that holds one JSON value and nothing after it but
// white space into dst, whose xml member is xml. The body is read once, into
// b's buffer grown to the declared length (a body without one grows it as it
// is read), and decoded from there; xml unquotes into b's other buffer.
func decode(w http.ResponseWriter, r *http.Request, b *body, dst any, xml *xmlText) bool {
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	*xml = b.xml[:0]
	var err error
	if n := r.ContentLength; n >= 0 && n <= maxBodyBytes {
		b.raw = slices.Grow(b.raw[:0], int(n))[:n]
		_, err = io.ReadFull(rd, b.raw)
	} else {
		buf := bytes.NewBuffer(b.raw[:0])
		_, err = buf.ReadFrom(rd)
		b.raw = buf.Bytes()
	}
	if err == nil {
		err = json.Unmarshal(b.raw, dst)
		b.xml = *xml
	}
	if syntax := (*json.SyntaxError)(nil); errors.As(err, &syntax) && leadingValue(b.raw) {
		err = errors.New("serve: request body holds more than one JSON value")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// leadingValue reports whether buf starts with a whole JSON value: when buf
// as a whole is not valid JSON, something other than white space follows it.
func leadingValue(buf []byte) bool {
	return json.NewDecoder(bytes.NewReader(buf)).Decode(new(json.RawMessage)) == nil
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownDocument):
		return http.StatusNotFound
	case errors.Is(err, ErrRemovedDocument):
		return http.StatusGone
	case errors.Is(err, xmlclust.ErrCanceled):
		return http.StatusServiceUnavailable
	}
	// Parse failures and any other request-shaped error are the client's.
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
