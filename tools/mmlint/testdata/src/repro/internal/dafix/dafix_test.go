package dafix

// Test-file uses keep nothing alive.
var _ = func() int {
	OnlyTest()
	_ = B{}.State()
	return Oracle()
}()
