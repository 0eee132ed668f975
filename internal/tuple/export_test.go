package tuple

// SameAsOracle is sameAsOracle, for FuzzExtract (package tuple_test, since
// the generators it renders import this package).
var SameAsOracle = sameAsOracle
