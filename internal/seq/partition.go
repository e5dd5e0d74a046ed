package seq

import (
	"fmt"
	"sort"
)

// Partition is a split of one database into independently indexable shards.
// Every sequence of the source database appears in exactly one shard;
// sequence residues are shared with the source (not copied), so a partition
// costs one concatenated view per shard but no residue duplication.
type Partition struct {
	// Shards are the per-shard databases, each over the source alphabet.
	Shards []*Database
	// GlobalIndex[s][i] is the index in the source database of shard s's
	// i-th sequence; it maps shard-local hit indexes back to global ones.
	GlobalIndex [][]int
}

// NumShards returns the number of shards.
func (p *Partition) NumShards() int { return len(p.Shards) }

// PartitionDatabase splits db into at most nShards shards balanced by
// residue count, using the greedy longest-processing-time heuristic:
// sequences are assigned longest-first to the currently lightest shard.
// The split is deterministic; within each shard, sequences keep their
// source order so shard-local searches see the same neighbourhoods.
//
// Fewer than nShards shards are returned when the database has fewer
// sequences than requested (a shard is never empty).
func PartitionDatabase(db *Database, nShards int) (*Partition, error) {
	if db == nil {
		return nil, fmt.Errorf("seq: nil database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("seq: shard count must be >= 1, got %d", nShards)
	}
	n := db.NumSequences()
	if n == 0 {
		return nil, fmt.Errorf("seq: cannot partition an empty database")
	}
	if nShards > n {
		nShards = n
	}

	// Longest-first assignment to the lightest shard (ties: lowest shard).
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := db.Sequence(order[a]).Len(), db.Sequence(order[b]).Len()
		if la != lb {
			return la > lb
		}
		return order[a] < order[b]
	})
	load := make([]int64, nShards)
	members := make([][]int, nShards)
	for _, si := range order {
		best := 0
		for s := 1; s < nShards; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		members[best] = append(members[best], si)
		load[best] += int64(db.Sequence(si).Len())
	}

	p := &Partition{
		Shards:      make([]*Database, nShards),
		GlobalIndex: make([][]int, nShards),
	}
	for s := range members {
		sort.Ints(members[s]) // restore source order within the shard
		seqs := make([]Sequence, len(members[s]))
		for i, gi := range members[s] {
			seqs[i] = db.Sequence(gi)
		}
		shardDB, err := NewDatabase(db.Alphabet(), seqs)
		if err != nil {
			return nil, err
		}
		p.Shards[s] = shardDB
		p.GlobalIndex[s] = members[s]
	}
	return p, nil
}

// PrefixPartition assigns every suffix of a database to exactly one shard by
// the suffix's one- or two-symbol prefix, so workers searching a shared
// suffix tree explore disjoint subtrees (the subtree rooted below prefix p
// holds exactly the suffixes starting with p).  Heavy single-symbol groups
// are split by their second symbol — including the terminator, for suffixes
// of length one — mirroring the disk index's Hunt-style prefix partitions
// (PrefixLen 1 or 2); prefixes never exceed two symbols, which keeps the
// shared near-root expansion shallow.
//
// PrefixPartition implements core.SubtreeAssigner.
type PrefixPartition struct {
	nShards int
	width   int // alphabet size; second-symbol buckets add one for the terminator
	// ownerL1[first] is the shard owning all suffixes starting with first,
	// or -1 when the group is split by second symbol.
	ownerL1 []int
	// ownerL2[first*(width+1)+bucket(second)] is the owning shard of a split
	// group's two-symbol prefix.
	ownerL2 []int
	// Load[s] counts the suffixes assigned to shard s (diagnostics, tests).
	Load []int64
	// NumGroups is the number of non-empty prefix groups assigned.
	NumGroups int
	// counts1[first] / counts2[first*(width+1)+bucket(second)] are the exact
	// per-prefix-group suffix counts the partition was balanced with; they
	// back PrefixCost.
	counts1 []int64
	counts2 []int64
}

// PrefixCost implements core.PrefixCoster: the exact number of indexed
// suffixes in a prefix group — every suffix starting with first when
// second < 0, or with the two-symbol prefix (first, second) otherwise
// (second may be the terminator).  Returns 0 (unknown) for a first symbol
// outside the alphabet, which no alignment can start with.
func (p *PrefixPartition) PrefixCost(first byte, second int) int64 {
	if int(first) >= p.width {
		return 0
	}
	if second < 0 {
		return p.counts1[first]
	}
	return p.counts2[int(first)*(p.width+1)+p.bucket(byte(second))]
}

// bucket folds a second symbol into its counter index (terminator last).
func (p *PrefixPartition) bucket(second byte) int {
	if int(second) >= p.width {
		return p.width
	}
	return int(second)
}

// NumShards implements core.SubtreeAssigner.
func (p *PrefixPartition) NumShards() int { return p.nShards }

// Split implements core.SubtreeAssigner: whether suffixes starting with
// first are partitioned among shards by their second symbol.
func (p *PrefixPartition) Split(first byte) bool {
	return int(first) < p.width && p.ownerL1[first] < 0
}

// Owner implements core.SubtreeAssigner: the shard owning the prefix (first)
// when !Split(first) — second is ignored — or (first, second) otherwise.
// Prefixes that cannot start an alignment (terminator first symbols) and
// prefixes absent from the database map to shard 0.
func (p *PrefixPartition) Owner(first, second byte) int {
	if int(first) >= p.width {
		return 0
	}
	if o := p.ownerL1[first]; o >= 0 {
		return o
	}
	return p.ownerL2[int(first)*(p.width+1)+p.bucket(second)]
}

// PartitionByPrefix builds a prefix partition of db's suffixes into nShards
// groups balanced by suffix count: single-symbol groups heavier than
// total/(2*nShards) are split into their two-symbol subgroups, and all
// groups are then assigned longest-processing-time-first to the lightest
// shard.  The partition is deterministic for a given database and shard
// count.
func PartitionByPrefix(db *Database, nShards int) (*PrefixPartition, error) {
	if db == nil {
		return nil, fmt.Errorf("seq: nil database")
	}
	if nShards < 1 {
		return nil, fmt.Errorf("seq: shard count must be >= 1, got %d", nShards)
	}
	if db.NumSequences() == 0 {
		return nil, fmt.Errorf("seq: cannot partition an empty database")
	}
	width := db.Alphabet().Size()
	p := &PrefixPartition{
		nShards: nShards,
		width:   width,
		ownerL1: make([]int, width),
		ownerL2: make([]int, width*(width+1)),
		Load:    make([]int64, nShards),
	}
	counts1 := make([]int64, width)
	counts2 := make([]int64, width*(width+1))
	concat := db.Concat()
	for pos := 0; pos < len(concat); pos++ {
		first := concat[pos]
		if int(first) >= width {
			continue // a terminator suffix can never start an alignment
		}
		counts1[first]++
		// first is a residue, so pos+1 exists (every sequence ends with a
		// terminator).
		counts2[int(first)*(width+1)+p.bucket(concat[pos+1])]++
	}

	// group is one assignable prefix: a whole first-symbol subtree or, for
	// split groups, a (first, second) subgroup.
	type group struct {
		first  int
		second int // -1 for a whole single-symbol group
		count  int64
	}
	var groups []group
	splitAbove := db.TotalResidues() / int64(2*nShards)
	for f := 0; f < width; f++ {
		switch {
		case counts1[f] == 0:
			p.ownerL1[f] = 0 // absent from the database; any owner works
		case nShards > 1 && counts1[f] > splitAbove:
			p.ownerL1[f] = -1
			for s := 0; s <= width; s++ {
				if c := counts2[f*(width+1)+s]; c > 0 {
					groups = append(groups, group{first: f, second: s, count: c})
				}
			}
		default:
			p.ownerL1[f] = 0 // reassigned below
			groups = append(groups, group{first: f, second: -1, count: counts1[f]})
		}
	}
	p.NumGroups = len(groups)

	// LPT: heaviest group to the lightest shard (ties: lowest shard; group
	// order ties broken by prefix for determinism).
	sort.SliceStable(groups, func(a, b int) bool {
		if groups[a].count != groups[b].count {
			return groups[a].count > groups[b].count
		}
		if groups[a].first != groups[b].first {
			return groups[a].first < groups[b].first
		}
		return groups[a].second < groups[b].second
	})
	for _, g := range groups {
		best := 0
		for s := 1; s < nShards; s++ {
			if p.Load[s] < p.Load[best] {
				best = s
			}
		}
		if g.second < 0 {
			p.ownerL1[g.first] = best
		} else {
			p.ownerL2[g.first*(width+1)+g.second] = best
		}
		p.Load[best] += g.count
	}
	p.counts1 = counts1
	p.counts2 = counts2
	return p, nil
}
