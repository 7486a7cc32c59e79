package blob

import (
	"slices"
	"sort"
	"strings"
)

// descBlock caps the keys in one sorted block of a descTable. An insert or
// delete moves at most this many string headers, and a walk binary-searches
// the blocks' last keys, so neither touches the rest of the table.
const descBlock = 128

// descTable is one server's descriptor table. The map serves point lookups;
// the same keys, kept in ascending order in blocks of at most descBlock, let
// a walk visit keys in order and a prefix walk visit only its prefix. Every
// mutation goes through put and del, so the two can never disagree. The zero
// value is an empty table. The caller synchronizes (server.mu).
type descTable struct {
	m map[string]descriptor
	// blocks are non-empty, each sorted, and every key of a block sorts
	// before every key of the next.
	blocks [][]string
}

func (t *descTable) get(key string) (descriptor, bool) {
	d, ok := t.m[key]
	return d, ok
}

func (t *descTable) len() int { return len(t.m) }

// put maps key to d, inserting key into the order if it is new.
func (t *descTable) put(key string, d descriptor) {
	if _, ok := t.m[key]; ok {
		t.m[key] = d
		return
	}
	if t.m == nil {
		t.m = make(map[string]descriptor)
	}
	t.m[key] = d
	if len(t.blocks) == 0 {
		t.blocks = [][]string{append(make([]string, 0, descBlock+1), key)}
		return
	}
	// A key past every block's last key joins the last block.
	bi := min(t.block(key), len(t.blocks)-1)
	b := t.blocks[bi]
	i, _ := slices.BinarySearch(b, key)
	b = slices.Insert(b, i, key)
	if len(b) <= descBlock {
		t.blocks[bi] = b
		return
	}
	// Full: split in two. Blocks have room for the one key that overflows
	// them, so the insert above never reallocates.
	half := len(b) / 2
	right := append(make([]string, 0, descBlock+1), b[half:]...)
	clear(b[half:])
	t.blocks[bi] = b[:half]
	t.blocks = slices.Insert(t.blocks, bi+1, right)
}

// del removes key, reporting whether the table held it.
func (t *descTable) del(key string) bool {
	if _, ok := t.m[key]; !ok {
		return false
	}
	delete(t.m, key)
	bi := t.block(key)
	b := t.blocks[bi]
	i, _ := slices.BinarySearch(b, key)
	if b = slices.Delete(b, i, i+1); len(b) == 0 {
		t.blocks = slices.Delete(t.blocks, bi, bi+1)
	} else {
		t.blocks[bi] = b
	}
	return true
}

// block returns the index of the first block whose last key is not below
// key: the only block that can hold key, or len(t.blocks) past the end.
func (t *descTable) block(key string) int {
	return sort.Search(len(t.blocks), func(i int) bool {
		b := t.blocks[i]
		return b[len(b)-1] >= key
	})
}

// ascend calls fn for every key with the prefix, in ascending key order (""
// visits the whole table). The keys with a prefix are contiguous in the
// order, starting at the first key not below it, so the walk starts there
// and stops at the first key without it. fn must not mutate the table.
func (t *descTable) ascend(prefix string, fn func(key string, d descriptor)) {
	bi := t.block(prefix)
	if bi == len(t.blocks) {
		return
	}
	i, _ := slices.BinarySearch(t.blocks[bi], prefix)
	for _, b := range t.blocks[bi:] {
		for _, key := range b[i:] {
			if !strings.HasPrefix(key, prefix) {
				return
			}
			fn(key, t.m[key])
		}
		i = 0
	}
}

// mergeKeys merges key lists into one ascending list without duplicates: the
// keys a set of descTable walks found, each key once.
func mergeKeys(lists [][]string) []string {
	keys := slices.Concat(lists...)
	slices.Sort(keys)
	return slices.Compact(keys)
}
