package picture

// Type-constraint pruning. The underlying picture matchers [27, 2] assign
// query objects to picture objects: an object is a candidate match for a
// query variable only when its type is similar to the type the query asks
// for. Without this, `present(x) and type(x) = 'train'` would partially
// match every object in every shot through the unconstrained present term.
// The compiler therefore collects the positive type predicates of an atomic
// formula per variable name (objVar.cons; negation over object variables is
// outside the atomic fragment, so every type predicate of a valid formula is
// positive), and a binding of a variable to a type-incompatible object is
// treated exactly like the absent binding (every term involving the variable
// scores 0): quantifiers skip such assignments, and ScoreAtomicAt maps such
// external bindings to the absent wildcard, which makes the reference
// evaluator and the SQL baseline agree with the table builder's pruning.

// compatible reports whether the object at position j of the current segment
// can be assigned to v: whether every type v is asserted to have gives the
// object's type a non-zero similarity, read from the machine's resolved
// similarity vectors.
func (m *machine) compatible(v *objVar, j int32) bool {
	if len(v.cons) == 0 {
		return true
	}
	typ := m.typeOf(j)
	for _, t := range v.cons {
		if m.typeSim[t*m.nTypes+typ] <= 0 {
			return false
		}
	}
	return true
}
