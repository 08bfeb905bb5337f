package cluster

// SeededIVF returns the default IVFOptions with the k-means seed set,
// for the external tests that build indexes over several draws.
func SeededIVF(seed uint64) IVFOptions { return IVFOptions{seed: seed} }
