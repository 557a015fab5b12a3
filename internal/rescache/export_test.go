package rescache

// CanonMemoCap exposes the canonical-encoding memo's capacity to the
// external test package, which needs the protocol registry and so cannot
// live in package rescache.
const CanonMemoCap = canonMemoCap

// CanonMemoLen reports how many entries the memo holds.
func CanonMemoLen() int {
	canonMemo.Lock()
	defer canonMemo.Unlock()
	return len(canonMemo.m)
}
