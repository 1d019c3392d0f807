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

// lru is a least-recently-used cache of entries by key, bounded by the summed
// cost of its entries: an answer costs 1, a payload its bytes. max <= 0 means
// unbounded. The entry just put is never evicted: costlier than max on its
// own, it stays as the only entry until the next put. Not safe for concurrent
// use, like the engine that owns it.
type lru[K comparable, V lruEntry[K]] struct {
	max, used int
	ll        *list.List // front = most recently used; values are V
	byKey     map[K]*list.Element
}

// lruEntry is what an lru holds: an entry that knows its key and cost.
type lruEntry[K comparable] interface {
	lruKey() K
	cost() int
}

func newLRU[K comparable, V lruEntry[K]](max int) *lru[K, V] {
	return &lru[K, V]{max: max, ll: list.New(), byKey: make(map[K]*list.Element)}
}

func (c *lru[K, V]) len() int { return c.ll.Len() }

// get returns the entry cached under key, marking it used, or the zero V.
func (c *lru[K, V]) get(key K) (v V) {
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		v = el.Value.(V)
	}
	return v
}

// put caches en, replacing any older entry under its key, and returns how
// many least recently used entries were evicted to fit max.
func (c *lru[K, V]) put(en V) int {
	c.remove(en.lruKey())
	c.byKey[en.lruKey()] = c.ll.PushFront(en)
	c.used += en.cost()
	evicted := 0
	for c.max > 0 && c.used > c.max && c.ll.Len() > 1 {
		c.removeElement(c.ll.Back())
		evicted++
	}
	return evicted
}

func (c *lru[K, V]) remove(key K) {
	if el, ok := c.byKey[key]; ok {
		c.removeElement(el)
	}
}

func (c *lru[K, V]) removeElement(el *list.Element) {
	en := el.Value.(V)
	c.ll.Remove(el)
	delete(c.byKey, en.lruKey())
	c.used -= en.cost()
}

// entries returns the cached entries, most recently used first. The returned
// slice is fresh; the entries are the cache's own, for a collection update to
// patch (see answerEntry.docs). Walking them does not count as a use.
func (c *lru[K, V]) entries() []V {
	out := make([]V, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(V))
	}
	return out
}

// answerEntry is one memoized query answer, keyed by canonical query string.
// The parsed query is retained so a collection update can match the one
// changed document against the cached queries and patch their answers. docs
// is shared with every caller it was returned to, so an update replaces the
// slice and never writes through it.
type answerEntry struct {
	key   string
	query xpath.Path
	docs  []xmldoc.DocID
}

func (en *answerEntry) lruKey() string { return en.key }
func (en *answerEntry) cost() int      { return 1 }

// payloadEntry is one cached document: its frame, the payload marshalled in
// place between header and checksum, and on a compressing engine the
// transport envelope the frame airs in. The two share the entry's key and LRU
// position and leave the cache together, and both count against the cache's
// byte bound.
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

func (en *payloadEntry) lruKey() xmldoc.DocID { return en.id }
func (en *payloadEntry) cost() int            { return len(en.frame) + len(en.env) }
