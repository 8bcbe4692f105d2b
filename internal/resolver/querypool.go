package resolver

import (
	"net/netip"
	"sync"

	"dnsttl/internal/dnswire"
)

// queryScratch bundles the reusable state of one iterate frame's steps: the
// candidate servers (bestServers), the order they are tried in, the query
// Message and its wire, and the buffer every attempt's reply lands in. The
// addresses are safe to reuse at the next step because a step reads them
// only until its exchange returns. The wire is safe to reuse once
// Exchange returns because no Exchanger retains a query past the call. The
// reply is safe to reuse once attempt has decoded it, because a decoded
// Message copies every byte it keeps and aliases nothing of its wire. The
// client answer a Resolve builds is not pooled — it escapes into Results and
// the cache.
type queryScratch struct {
	addrs []netip.Addr
	order []netip.Addr
	hosts []dnswire.Name // NS hosts nsAddresses resolves on the side
	msg   dnswire.Message
	wire  []byte
	reply []byte
}

// maxPooledReply bounds the reply buffer a pooled scratch keeps: the rare
// large (TCP-fallback, AXFR-sized) reply is not pinned in the pool.
const maxPooledReply = 4096

var queryScratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func acquireQueryScratch() *queryScratch { return queryScratchPool.Get().(*queryScratch) }

func releaseQueryScratch(qs *queryScratch) {
	qs.msg.Reset()
	if cap(qs.reply) > maxPooledReply {
		qs.reply = nil
	}
	queryScratchPool.Put(qs)
}

// encode builds a one-question query (plus optional extra additional
// records already placed in qs.msg.Additional by the caller) into qs.wire.
func (qs *queryScratch) encode() error {
	wire, err := dnswire.AppendEncode(qs.wire[:0], &qs.msg)
	if wire != nil {
		qs.wire = wire
	}
	return err
}

// question is the one question the scratch's query asks.
func (qs *queryScratch) question() dnswire.Question { return qs.msg.Question[0] }

// LendName implements dnswire.NameSource for a reply's decode: a matching
// reply spells the name asked in its question and its answers, and the
// resolver holds that string already.
func (qs *queryScratch) LendName(spelling []byte) (dnswire.Name, bool) {
	name := qs.question().Name
	return name, string(name) == string(spelling)
}
