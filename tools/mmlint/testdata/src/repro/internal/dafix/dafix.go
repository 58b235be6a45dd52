// Package dafix is the deadapi fixture: exported API under
// repro/internal/, some of it used by repro/cmd/dause, some only by
// dafix_test.go, some by nobody.
package dafix

import "fmt"

// Used is called from dause.
func Used() int { return helper() }

// Unused has no caller at all.
func Unused() {} // want `exported dafix.Unused has no non-test use`

// OnlyTest is called only from dafix_test.go.
func OnlyTest() {} // want `exported dafix.OnlyTest has no non-test use`

// Recursive calls nothing but itself.
func Recursive(n int) int { // want `exported dafix.Recursive has no non-test use`
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Oracle is a reference the tests compare against.
//
//mmlint:testref oracle for the fixture tests
func Oracle() int { return 1 }

// Bare carries a waiver without a reason.
//
//mmlint:testref
func Bare() {} // want `//mmlint:testref on dafix.Bare needs a reason`

// Stale carries a waiver although dause calls it.
//
//mmlint:testref only the tests call it
func Stale() {} // want `dafix.Stale has a non-test use: drop its //mmlint:testref waiver`

func helper() int { return 0 }

func unusedHelper() {}

// A and B both declare State; dause calls only A's.
type A struct{}

// B is never constructed outside the tests.
type B struct{}

func (A) State() int { return 1 }

func (B) State() int { return 2 } // want `exported dafix.B.State has no non-test use`

// String implements fmt.Stringer: fmt calls it without the module
// naming the interface.
func (A) String() string { return fmt.Sprint("a") }

// Area implements dause's Shape.
func (*B) Area() float64 { return 0 }

func (A) private() {}
