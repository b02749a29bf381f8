package engine

// Fixtures for the external engine_test package, whose equivalence
// tests compare Apply against internal/oracle. They cannot live in this
// package: oracle imports engine.
var (
	BatchSize     = batchSize
	VecTestSchema = vecTestSchema
	VecTestRows   = vecTestRows
	VecJoinTable  = vecJoinTable
)
