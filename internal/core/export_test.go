package core

import "repro/internal/xpath"

// ReferencePrune is the set-based three-pass prune the view is specified
// against.
func ReferencePrune(ix *Index, queries []xpath.Path) (*Index, PruneStats) {
	return referencePrune(ix, queries)
}
