package server

// ScanMutation lets the black-box tests ask whether a body the typed
// client rendered takes the scanner's fast path.
var ScanMutation = scanMutation
