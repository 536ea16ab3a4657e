package srv

import (
	"html/template"
	"net/http"
	"strconv"

	"repro/internal/exp"
	"repro/internal/exp/queue"
)

// The embedded results browser is deliberately plain HTML — no scripts,
// no assets — with a meta-refresh while a campaign is still running.
// It is an inspection surface, not a control surface: submission stays
// on the JSON API.

var indexTmpl = template.Must(template.New("index").Parse(`<!DOCTYPE html>
<html><head><title>dragonsrv</title><meta http-equiv="refresh" content="5">
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 0.3em 0.7em; text-align: right; }
th { background: #eee; } td.l, th.l { text-align: left; }
</style></head><body>
<h1>dragonsrv</h1>
<h2>Store</h2>
<table>
<tr><th>entries</th><th>bytes</th><th>max bytes</th><th>hits</th><th>misses</th><th>evictions</th></tr>
<tr><td>{{.Store.Entries}}</td><td>{{.Store.Bytes}}</td>
<td>{{if .Store.MaxBytes}}{{.Store.MaxBytes}}{{else}}&infin;{{end}}</td>
<td>{{.Store.Hits}}</td><td>{{.Store.Misses}}</td><td>{{.Store.Evictions}}</td></tr>
</table>
<h2>Fleet</h2>
<table>
<tr><th>queued</th><th>leased</th><th>leases</th><th>completed</th><th>failed</th>
<th>requeues</th><th>expired leases</th><th>quarantined</th><th>late discards</th></tr>
<tr><td>{{.Fleet.QueuedPoints}}</td><td>{{.Fleet.LeasedPoints}}</td><td>{{.Fleet.ActiveLeases}}</td>
<td>{{.Fleet.Completed}}</td><td>{{.Fleet.Failed}}</td>
<td>{{.Fleet.Requeues}}</td><td>{{.Fleet.ExpiredLeases}}</td>
<td>{{.Fleet.Quarantined}}</td><td>{{.Fleet.LateDiscarded}}</td></tr>
</table>
{{if .Fleet.Workers}}
<h3>Workers</h3>
<table>
<tr><th class="l">worker</th><th>heartbeat age (s)</th><th>leases</th><th>points</th>
<th>completed</th><th>crashes</th></tr>
{{range .Fleet.Workers}}
<tr><td class="l">{{.Name}}</td><td>{{printf "%.1f" .HeartbeatAgeSeconds}}</td>
<td>{{.ActiveLeases}}</td><td>{{.ActivePoints}}</td>
<td>{{.Completed}}</td><td>{{.Crashes}}</td></tr>
{{end}}
</table>{{end}}
<h2>Campaigns</h2>
{{if not .Campaigns}}<p>No campaigns submitted yet.</p>{{else}}
<table>
<tr><th class="l">id</th><th class="l">name</th><th>points</th><th>done</th>
<th>simulated</th><th>from store</th><th>deduped</th><th class="l">state</th></tr>
{{range .Campaigns}}
<tr><td class="l"><a href="/campaigns/{{.ID}}">{{.ID}}</a></td>
<td class="l">{{.Name}}</td><td>{{.Total}}</td><td>{{.Done}}</td>
<td>{{.Executed}}</td><td>{{.FromStore}}</td><td>{{.Deduped}}</td>
<td class="l">{{if .Error}}error{{else if .Finished}}finished{{else}}running{{end}}</td></tr>
{{end}}
</table>{{end}}
</body></html>
`))

var campaignTmpl = template.Must(template.New("campaign").Parse(`<!DOCTYPE html>
<html><head><title>dragonsrv · {{.Status.ID}}</title>
{{if not .Status.Finished}}<meta http-equiv="refresh" content="2">{{end}}
<style>
body { font-family: sans-serif; margin: 2em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #999; padding: 0.3em 0.7em; text-align: right; }
th { background: #eee; } td.l, th.l { text-align: left; }
</style></head><body>
<p><a href="/">&larr; all campaigns</a></p>
<h1>{{.Status.ID}} · {{.Status.Name}}</h1>
<p>{{.Status.Done}}/{{.Status.Total}} points
({{.Status.Executed}} simulated, {{.Status.FromStore}} from store, {{.Status.Deduped}} deduped)
— {{if .Status.Error}}error: {{.Status.Error}}{{else if .Status.Finished}}finished{{else}}running&hellip;{{end}}</p>
<p><a href="/api/v1/campaigns/{{.Status.ID}}/results.jsonl">results.jsonl</a> ·
<a href="/api/v1/campaigns/{{.Status.ID}}/results">results.json</a></p>
<table>
<tr><th>#</th><th class="l">series</th><th>x</th><th class="l">state</th>
<th>accepted</th><th>latency</th><th>seconds</th></tr>
{{range .Rows}}
<tr><td>{{.Index}}</td><td class="l">{{.Series}}</td><td>{{.X}}</td>
<td class="l">{{.State}}</td><td>{{.Accepted}}</td><td>{{.Latency}}</td><td>{{.Seconds}}</td></tr>
{{end}}
</table>
</body></html>
`))

type campaignRow struct {
	Index    int
	Series   string
	X        float64
	State    string
	Accepted string
	Latency  string
	Seconds  string
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	data := struct {
		Store     exp.StoreStats
		Fleet     queue.FleetStats
		Campaigns []Status
	}{Store: s.store.Stats(), Fleet: s.queue.Stats(), Campaigns: s.statuses()}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	indexTmpl.Execute(w, data) //nolint:errcheck // client went away
}

func (s *Server) handleCampaignPage(w http.ResponseWriter, r *http.Request) {
	c := s.campaign(r.PathValue("id"))
	if c == nil {
		http.NotFound(w, r)
		return
	}
	c.mu.Lock()
	st := c.statusLocked()
	rows := make([]campaignRow, len(c.points))
	for i, p := range c.points {
		rows[i] = campaignRow{Index: i, Series: p.Series, X: p.X, State: "pending"}
	}
	for i := range c.recs {
		o := &c.recs[i]
		row := &rows[o.Index]
		switch {
		case o.Err != nil:
			row.State = "error"
		case o.Cached:
			row.State = "cached"
		default:
			row.State = "done"
		}
		if o.Err == nil {
			row.Accepted = strconv.FormatFloat(o.Result.AcceptedLoad, 'f', 4, 64)
			row.Latency = strconv.FormatFloat(o.Result.AvgTotalLatency, 'f', 1, 64)
		}
		row.Seconds = strconv.FormatFloat(o.Seconds, 'f', 2, 64)
	}
	c.mu.Unlock()
	data := struct {
		Status Status
		Rows   []campaignRow
	}{Status: st, Rows: rows}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	campaignTmpl.Execute(w, data) //nolint:errcheck // client went away
}
