package resolver

import (
	"sync"

	"dnsttl/internal/dnswire"
)

// queryScratch bundles the reusable query Message and wire buffer the
// query-build hot path (Resolver.exchangeAny) encodes into. Reuse after
// Exchange returns is safe because the simulated network delivers
// synchronously: no handler retains the query bytes past the call.
// Upstream replies are pooled separately (see Resolver.attempt); the client
// answer a Resolve builds is not — it escapes into Results and the cache.
type queryScratch struct {
	msg  dnswire.Message
	wire []byte
}

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func acquireQueryScratch() *queryScratch { return queryScratchPool.Get().(*queryScratch) }

func releaseQueryScratch(qs *queryScratch) {
	qs.msg.Reset()
	queryScratchPool.Put(qs)
}

// encodeQuery builds a one-question query (plus optional extra additional
// records already placed in qs.msg.Additional by the caller) into qs.wire.
func (qs *queryScratch) encode() ([]byte, error) {
	wire, err := dnswire.AppendEncode(qs.wire[:0], &qs.msg)
	if wire != nil {
		qs.wire = wire[:0]
	}
	return wire, err
}
