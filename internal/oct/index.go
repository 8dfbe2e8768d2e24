package oct

// mapIndex is one lock stripe's version index (docs/STORAGE.md): it maps
// (name, version) pairs to the object versions of the names that hash to
// the stripe. A hash map keys each name to its dense version slice; slot
// i holds version i+1. Point operations are O(1); iteration order is Go
// map order, i.e. deliberately unspecified (the store sorts globally
// where order matters, so the unordered walk is free).
//
// The slot and hole contract the store relies on:
//
//   - Versions are 1-based slots. Put places an object at its explicit
//     slot; Append assigns ChainLen(name)+1.
//   - Physical deletion leaves a hole: the slot is nilled out but stays
//     part of the chain (ChainLen does not shrink), so later version
//     numbers never reuse a removed slot and existing references stay
//     unambiguous (§3.2).
//   - Iteration (Scan, Range) visits live versions only, never holes;
//     HoleTails names the chains that end in one, which the snapshot
//     records so a restored chain keeps its length.
//   - The index is NOT safe for concurrent use: the stripe lock
//     serializes every call.
type mapIndex struct {
	objects map[string][]*Object
	live    int
}

func newMapIndex() *mapIndex {
	return &mapIndex{objects: make(map[string][]*Object)}
}

// Put places obj at slot (obj.Name, obj.Version), extending the chain
// with holes as needed. Putting into an occupied slot replaces the
// occupant (recovery paths guard against that before calling).
func (ix *mapIndex) Put(obj *Object) {
	versions := ix.Extend(obj.Name, obj.Version)
	if versions[obj.Version-1] == nil {
		ix.live++
	}
	versions[obj.Version-1] = obj
}

// Extend grows name's chain to at least n slots, padding it with holes,
// and returns the chain.
func (ix *mapIndex) Extend(name string, n int) []*Object {
	versions := ix.objects[name]
	for len(versions) < n {
		versions = append(versions, nil)
	}
	ix.objects[name] = versions
	return versions
}

// Append assigns obj the next version number — ChainLen(obj.Name)+1 —
// stores it there, and returns the number.
func (ix *mapIndex) Append(obj *Object) int {
	versions := ix.objects[obj.Name]
	obj.Version = len(versions) + 1
	ix.objects[obj.Name] = append(versions, obj)
	ix.live++
	return obj.Version
}

// Get returns the object at (name, version), or nil when the slot is a
// hole or beyond the chain.
func (ix *mapIndex) Get(name string, version int) *Object {
	versions := ix.objects[name]
	if version < 1 || version > len(versions) {
		return nil
	}
	return versions[version-1]
}

// Delete physically removes the slot's object, leaving a hole, and
// returns what it removed (nil when the slot was already empty).
func (ix *mapIndex) Delete(name string, version int) *Object {
	versions := ix.objects[name]
	if version < 1 || version > len(versions) || versions[version-1] == nil {
		return nil
	}
	obj := versions[version-1]
	versions[version-1] = nil
	ix.live--
	return obj
}

// ChainLen returns the highest slot ever occupied for name — holes
// included — or 0 when the name has never had a version.
func (ix *mapIndex) ChainLen(name string) int { return len(ix.objects[name]) }

// Latest returns the live version with the highest slot, or nil.
func (ix *mapIndex) Latest(name string) *Object {
	versions := ix.objects[name]
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i] != nil {
			return versions[i]
		}
	}
	return nil
}

// LatestVisible returns the visible live version with the highest slot,
// or nil — the resolution of a version-0 Ref (§3.2).
func (ix *mapIndex) LatestVisible(name string) *Object {
	versions := ix.objects[name]
	for i := len(versions) - 1; i >= 0; i-- {
		if versions[i] != nil && versions[i].visible {
			return versions[i]
		}
	}
	return nil
}

// Scan calls fn for each live version of name with lo <= version <= hi
// in ascending version order (hi <= 0 means unbounded); fn returning
// false stops the scan.
func (ix *mapIndex) Scan(name string, lo, hi int, fn func(*Object) bool) {
	versions := ix.objects[name]
	if lo < 1 {
		lo = 1
	}
	if hi <= 0 || hi > len(versions) {
		hi = len(versions)
	}
	for v := lo; v <= hi; v++ {
		if obj := versions[v-1]; obj != nil {
			if !fn(obj) {
				return
			}
		}
	}
}

// Range calls fn for every live version in the index, in unspecified
// order; fn returning false stops.
func (ix *mapIndex) Range(fn func(*Object) bool) {
	for _, versions := range ix.objects {
		for _, obj := range versions {
			if obj != nil {
				if !fn(obj) {
					return
				}
			}
		}
	}
}

// HoleTails calls fn with the name and length of every chain whose
// highest slot is a hole, in unspecified order.
func (ix *mapIndex) HoleTails(fn func(name string, chainLen int)) {
	for name, versions := range ix.objects {
		if n := len(versions); versions[n-1] == nil {
			fn(name, n)
		}
	}
}

// Len returns the number of live versions in the index.
func (ix *mapIndex) Len() int { return ix.live }
