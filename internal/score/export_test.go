package score

// RequireIdentical exposes requireIdentical to the package's external
// tests, which may import scoretest.
var RequireIdentical = requireIdentical
