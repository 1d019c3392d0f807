package engine

import (
	"container/list"
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// ErrOverload is returned (wrapped) when admission refuses work: Ledger.Admit
// refuses a request while the pending set is at its cap, and admission layers
// built on the ledger (netcast.Server) wrap it for their own rejections.
// Callers test with errors.Is(err, ErrOverload).
var ErrOverload = errors.New("engine: overloaded")

// Limits bounds the engine's memory and per-cycle latency. The zero value
// imposes no limits, preserving the unbounded pre-Limits behaviour. The
// pending set is not among them: the engine assembles whatever it is given,
// and the cap on it is the admitting driver's (Ledger.Admit).
type Limits struct {
	// MaxAnswerCacheEntries caps the memoized query answers; the least
	// recently used entry is evicted on overflow. Zero means unlimited.
	MaxAnswerCacheEntries int
	// MaxPayloadCacheBytes caps the total bytes of the document cache: each
	// entry's marshalled payload plus the on-air form a driver attached to it
	// (Engine.AttachAir; the transport envelope on a compressing server). The
	// least recently broadcast entries are evicted on overflow, payload and
	// on-air form together. Zero means unlimited.
	MaxPayloadCacheBytes int
	// BuildBudget is the wall-time deadline for the build stage's PCI
	// pruning. When pruning overruns it, the cycle degrades gracefully:
	// the unpruned CI is packed and broadcast instead (a strict superset
	// of the PCI, so clients decode it unchanged) and the cycle is
	// reported through Probe.CycleDegraded. Zero means no deadline.
	BuildBudget time.Duration
}

// answerEntry is one memoized query answer. The parsed query is retained so
// a collection update can match the one changed document against the cached
// queries and patch their answers. docs is shared with every caller it was
// returned to, so an update replaces the slice and never writes through it.
type answerEntry struct {
	key   string
	query xpath.Path
	docs  []xmldoc.DocID
}

// answerCache is an LRU memo of query answers keyed by canonical query
// string. maxEntries <= 0 means unbounded. Not safe for concurrent use, like
// the engine that owns it.
type answerCache struct {
	maxEntries int
	ll         *list.List // front = most recently used; values are *answerEntry
	byKey      map[string]*list.Element
}

func newAnswerCache(maxEntries int) *answerCache {
	return &answerCache{maxEntries: maxEntries, ll: list.New(), byKey: make(map[string]*list.Element)}
}

func (c *answerCache) len() int { return c.ll.Len() }

func (c *answerCache) get(key string) ([]xmldoc.DocID, bool) {
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*answerEntry).docs, true
}

// put inserts or refreshes an entry and returns how many entries were
// evicted to stay within maxEntries.
func (c *answerCache) put(key string, q xpath.Path, docs []xmldoc.DocID) int {
	if el, ok := c.byKey[key]; ok {
		el.Value.(*answerEntry).docs = docs
		c.ll.MoveToFront(el)
		return 0
	}
	c.byKey[key] = c.ll.PushFront(&answerEntry{key: key, query: q, docs: docs})
	evicted := 0
	for c.maxEntries > 0 && c.ll.Len() > c.maxEntries {
		c.removeElement(c.ll.Back())
		evicted++
	}
	return evicted
}

func (c *answerCache) removeElement(el *list.Element) {
	c.ll.Remove(el)
	delete(c.byKey, el.Value.(*answerEntry).key)
}

// entries returns the cached entries, most recently used first. The returned
// slice is fresh; the entries are the cache's own, for a collection update to
// patch (see answerEntry.docs). Walking them does not count as a use.
func (c *answerCache) entries() []*answerEntry {
	out := make([]*answerEntry, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*answerEntry))
	}
	return out
}

// payloadEntry is one cached document: the wire payload the engine marshals
// and, beside it, the on-air form a driver attached (Engine.AttachAir) — nil
// until one does. The two share the entry's key and LRU position and leave
// the cache together.
type payloadEntry struct {
	id      xmldoc.DocID
	payload []byte
	air     []byte
}

// payloadCache is an LRU cache of encoded document payloads and their on-air
// forms, bounded by the total bytes of both. maxBytes <= 0 means unbounded.
// Not safe for concurrent use.
type payloadCache struct {
	maxBytes int
	bytes    int
	ll       *list.List // front = most recently used; values are *payloadEntry
	byID     map[xmldoc.DocID]*list.Element
}

func newPayloadCache(maxBytes int) *payloadCache {
	return &payloadCache{maxBytes: maxBytes, ll: list.New(), byID: make(map[xmldoc.DocID]*list.Element)}
}

// get returns the document's entry, or nil when it is not cached.
func (c *payloadCache) get(id xmldoc.DocID) *payloadEntry {
	el, ok := c.byID[id]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*payloadEntry)
}

// put caches a payload and returns how many entries were evicted to fit
// maxBytes. A payload replacing an older one for the same document starts
// with no on-air form.
func (c *payloadCache) put(id xmldoc.DocID, payload []byte) int {
	c.remove(id)
	c.byID[id] = c.ll.PushFront(&payloadEntry{id: id, payload: payload})
	c.bytes += len(payload)
	return c.evict()
}

// attach stores air beside payload and returns how many entries were evicted
// to fit maxBytes with it counted. It does nothing unless payload is still the
// cache's own slice for its document (whose ID is the payload's first two
// bytes): an entry evicted, removed or replaced since the payload was handed
// out has nothing to attach to.
func (c *payloadCache) attach(payload, air []byte) int {
	el, ok := c.byID[xmldoc.DocID(binary.LittleEndian.Uint16(payload))]
	if !ok {
		return 0
	}
	e := el.Value.(*payloadEntry)
	if &e.payload[0] != &payload[0] {
		return 0
	}
	c.bytes += len(air) - len(e.air)
	e.air = air
	c.ll.MoveToFront(el)
	return c.evict()
}

// evict drops least recently used entries until the cache fits maxBytes and
// returns how many went. The front entry — the one just inserted or attached
// to — is never evicted: larger than maxBytes on its own, it stays as the only
// entry until the next put or attach.
func (c *payloadCache) evict() int {
	evicted := 0
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.ll.Len() > 1 {
		c.removeElement(c.ll.Back())
		evicted++
	}
	return evicted
}

func (c *payloadCache) remove(id xmldoc.DocID) {
	if el, ok := c.byID[id]; ok {
		c.removeElement(el)
	}
}

func (c *payloadCache) removeElement(el *list.Element) {
	e := el.Value.(*payloadEntry)
	c.ll.Remove(el)
	delete(c.byID, e.id)
	c.bytes -= len(e.payload) + len(e.air)
}
