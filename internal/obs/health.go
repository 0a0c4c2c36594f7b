package obs

import "net/http"

// Health rollup: the one-glance verdict behind GET /debug/health. Each
// serving layer (store, server, shard coordinator) assembles a HealthDoc from
// its own signals — WAL lag and checkpoint age, breaker states, cache hit
// ratios, shard membership, admission-queue depth — and every degraded
// component carries a human-readable reason string, so the document answers
// both "is it healthy?" and "why not?".

// HealthStatus values of a HealthDoc.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
)

// HealthComponent is one contributor to the rollup.
type HealthComponent struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	// Reason explains the component's state: the degradation cause when not
	// OK, an informational summary (hit ratios, lag figures) when OK.
	Reason string `json:"reason,omitempty"`
}

// HealthDoc is the /debug/health JSON document: the rolled-up status plus
// every component that fed it.
type HealthDoc struct {
	Status     string            `json:"status"`
	Components []HealthComponent `json:"components"`
}

// Add appends one component and keeps the rollup current: any degraded
// component degrades the whole document.
func (d *HealthDoc) Add(name string, ok bool, reason string) {
	d.Components = append(d.Components, HealthComponent{Name: name, OK: ok, Reason: reason})
	if d.Status == "" {
		d.Status = HealthOK
	}
	if !ok {
		d.Status = HealthDegraded
	}
}

// Merge folds another document's components into d (prefixing is the
// caller's job if names collide).
func (d *HealthDoc) Merge(other HealthDoc) {
	for _, c := range other.Components {
		d.Add(c.Name, c.OK, c.Reason)
	}
}

// Degraded reports whether any component degraded the rollup.
func (d HealthDoc) Degraded() bool { return d.Status == HealthDegraded }

// Reasons returns the reason strings of the degraded components.
func (d HealthDoc) Reasons() []string {
	var out []string
	for _, c := range d.Components {
		if !c.OK {
			out = append(out, c.Reason)
		}
	}
	return out
}

// WriteHealth serves a health document. The HTTP status is 200 either way —
// degraded-but-serving is precisely what the document distinguishes from
// down (load balancers use /readyz, which does flip status codes).
func WriteHealth(w http.ResponseWriter, d HealthDoc) {
	if d.Status == "" {
		d.Status = HealthOK
	}
	if d.Components == nil {
		d.Components = []HealthComponent{}
	}
	WriteJSON(w, http.StatusOK, d)
}
