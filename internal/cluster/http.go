package cluster

import (
	"net/http"

	"recross/internal/serve"
)

// Handler returns the router's HTTP front-end — serve.NewHandler over the
// router, so it is wire-compatible with a single node's and clients need
// not care which they talk to (an upstream router federates over a
// BinServer with RouterBackend instead). /v1/lookup answers
// carry Replica=-1 and ServiceCycles set to the cluster critical path;
// /metrics is the recross_cluster_* exposition; /healthz the aggregated
// cluster health.
func (r *Router) Handler() http.Handler {
	return serve.NewHandler(r.opts.Layer, RouterBackend{r}.Lookup, r.set, func() (any, bool) {
		h := r.Health()
		return h, h.Status == "draining"
	})
}
