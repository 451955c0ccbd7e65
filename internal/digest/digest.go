// Package digest is the one definition of the state fingerprint carried
// by journal records, snapshots, trace footers and the serving endpoints.
// A set digests to the wrapping 64-bit sum of its elements' hashes,
// finalised with the element count, so the sum can be kept in step with
// the set (add what goes in, subtract what goes out) and never needs an
// order. An element hash is an FNV-1a fold of the element's fields put
// through the splitmix64 finaliser. It is an integrity fingerprint, not
// a MAC: random states collide with probability 2^-64, but an adversary
// who chooses tuples can collide an additive hash far faster.
package digest

// Seed is the hash of an element with no fields folded in yet.
const Seed uint64 = 14695981039346656037

const prime = 1099511628211

// String folds s and its length into h, so consecutive strings keep
// their boundary.
func String(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * prime
	}
	return Uint64(h, uint64(len(s)))
}

// Uint64 folds x into h.
func Uint64(h, x uint64) uint64 { return (h ^ x) * prime }

// Mix finishes an element hash: the splitmix64 finaliser.
func Mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Set finishes the digest of a set of n elements whose hashes sum to sum.
func Set(sum uint64, n int) uint64 { return Mix(Uint64(sum, uint64(n))) }
