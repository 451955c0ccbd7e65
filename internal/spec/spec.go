// Package spec owns JANUS's commutativity specification through its
// whole life (§5.1–5.3): training mines per-location operation sequences
// from a sequential run (train.go), abstracts each under the §5.2
// Kleene-cross canonicalization (abstract.go), proves a symbolic
// commutativity condition for each pair and verifies it against the
// concrete Figure 8 checks (condition.go), and stores it under the pair's
// key (cache.go), from where it is saved and loaded as a deployment
// artifact (serialize.go) and evaluated at detection time.
//
// The detector (internal/conflict) asks it one question per location
// pair, Cache.Lookup, with the two sequences' keys rendered by
// Mode.AppendKey; the answer is hit or miss, the verdict and the failed
// check. A cache built to learn (§5.3 online training) proves and stores
// a missed pair's condition behind that same question. How keys are
// rendered and joined, which condition kinds exist and how they are
// proved stay inside the package.
package spec
