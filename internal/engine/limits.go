package engine

import (
	"container/list"
	"errors"

	"repro/internal/xmldoc"
	"repro/internal/xpath"
)

// ErrOverload is returned (wrapped) when admission refuses work: Ledger.Admit
// refuses a request while the pending set is at its cap, and admission layers
// built on the ledger (netcast.Server) wrap it for their own rejections.
// Callers test with errors.Is(err, ErrOverload).
var ErrOverload = errors.New("engine: overloaded")

// Limits bounds the engine's memory. The zero value
// imposes no limits, preserving the unbounded pre-Limits behaviour. The
// pending set is not among them: the engine assembles whatever it is given,
// and the cap on it is the admitting driver's (Ledger.Admit).
type Limits struct {
	// MaxAnswerCacheEntries caps the memoized query answers; the least
	// recently used entry is evicted on overflow. Zero means unlimited.
	MaxAnswerCacheEntries int
	// MaxPayloadCacheBytes caps the total bytes of the document cache: each
	// entry's frame (the marshalled payload between header and checksum) plus,
	// on a compressing engine, the transport envelope it airs in. The least
	// recently broadcast entries are evicted on overflow, frame and envelope
	// together. Zero means unlimited.
	MaxPayloadCacheBytes int
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

// payloadEntry is one cached document: its frame, the payload marshalled in
// place between header and checksum, and on a compressing engine the
// transport envelope the frame airs in. The two share the entry's key and LRU
// position and leave the cache together.
type payloadEntry struct {
	id    xmldoc.DocID
	frame []byte
	env   []byte
}

// onAir is the entry's on-air form: the envelope when there is one, the bare
// frame otherwise.
func (en *payloadEntry) onAir() []byte {
	if en.env != nil {
		return en.env
	}
	return en.frame
}

// size is what the entry counts against the cache's byte bound.
func (en *payloadEntry) size() int { return len(en.frame) + len(en.env) }

// payloadCache is an LRU cache of framed documents, bounded by the total
// bytes of their frames and envelopes. maxBytes <= 0 means unbounded. Not
// safe for concurrent use.
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

// put caches an entry, replacing any older one for its document, and returns
// how many least recently used entries were evicted to fit maxBytes. The
// entry just put is never evicted: larger than maxBytes on its own, it stays
// as the only entry until the next put.
func (c *payloadCache) put(en *payloadEntry) int {
	c.remove(en.id)
	c.byID[en.id] = c.ll.PushFront(en)
	c.bytes += en.size()
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
	en := el.Value.(*payloadEntry)
	c.ll.Remove(el)
	delete(c.byID, en.id)
	c.bytes -= en.size()
}
