package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"xmlclust"
)

// maxBodyBytes bounds request bodies (raw XML documents are small compared
// to the corpora the paper serves; 16 MiB is generous).
const maxBodyBytes = 16 << 20

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
	h := &handler{s: s}
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
	s *Service
}

type addDocumentRequest struct {
	Name  string `json:"name"`
	XML   string `json:"xml"`
	Label *int   `json:"label"`
}

type classifyRequest struct {
	XML string `json:"xml"`
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
	var req addDocumentRequest
	if !decode(w, r, &req) {
		return
	}
	if req.XML == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty xml field"))
		return
	}
	label := -1
	if req.Label != nil {
		label = *req.Label
	}
	info, err := h.s.AddDocument(r.Context(), req.Name, []byte(req.XML), label)
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
	var req classifyRequest
	if !decode(w, r, &req) {
		return
	}
	if req.XML == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: empty xml field"))
		return
	}
	res, err := h.s.Classify(r.Context(), []byte(req.XML))
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

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return false
	}
	return true
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
