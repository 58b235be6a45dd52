package packetrelease

import "repro/tools/mmlint/internal/analysis"

// The checked-in ownership facts table. The packet pool hands out owned
// *packet.Packet values; ownership moves exactly once, through one of the
// sinks below, or back to the pool through Release. The analyzer trusts
// these contracts at call sites and (for checked sinks defined inside the
// analyzed packages) verifies the declarations honour them.
//
// Keys use the Callee naming scheme: package path, receiver type name
// ("" for package-level functions, the interface name for interface
// methods), function name.

const packetPkg = "repro/internal/packet"

// producerFact describes a function whose result 0 is an owned packet.
type producerFact struct {
	// consumesArg is the index of a packet argument the producer takes
	// ownership of (Encapsulate absorbs its inner packet), or -1.
	consumesArg int
	// condRestore: when the producer also returns an error, a non-nil
	// error means the consumed argument stays with the caller.
	condRestore bool
}

var producers = map[analysis.FuncRef]producerFact{
	{Pkg: packetPkg, Name: "New"}:                         {consumesArg: -1},
	{Pkg: packetPkg, Name: "NewFrom"}:                     {consumesArg: -1},
	{Pkg: packetPkg, Name: "NewControl"}:                  {consumesArg: -1},
	{Pkg: packetPkg, Name: "Unmarshal"}:                   {consumesArg: -1},
	{Pkg: packetPkg, Name: "Encapsulate"}:                 {consumesArg: 2, condRestore: true},
	{Pkg: packetPkg, Recv: "Packet", Name: "Clone"}:       {consumesArg: -1},
	{Pkg: packetPkg, Recv: "Packet", Name: "Decapsulate"}: {consumesArg: -1},
}

// sinkFact describes a function that takes ownership of the packet passed
// at argument index arg.
type sinkFact struct {
	arg int
	// frees: the packet returns to the pool (any later read is
	// use-after-release). Transfer sinks keep the packet alive elsewhere.
	frees bool
	// condErr: consumes only when the returned error is nil (Send).
	condErr bool
	// condBool: consumes only when the returned bool is true (Buffer).
	condBool bool
	// checked: the declaration lives in an analyzed package and must
	// itself consume the parameter on every path.
	checked bool
}

const (
	netsimPkg     = "repro/internal/netsim"
	qosPkg        = "repro/internal/qos"
	mobileipPkg   = "repro/internal/mobileip"
	cellularipPkg = "repro/internal/cellularip"
	multitierPkg  = "repro/internal/multitier"
)

var sinks = map[analysis.FuncRef]sinkFact{
	{Pkg: packetPkg, Name: "Release"}: {arg: 0, frees: true},

	// netsim: drops free the packet; sends and delivery keep it moving.
	{Pkg: netsimPkg, Recv: "Network", Name: "Drop"}:          {arg: 1, frees: true, checked: true},
	{Pkg: netsimPkg, Recv: "Network", Name: "observeDrop"}:   {arg: 1, frees: true, checked: true},
	{Pkg: netsimPkg, Recv: "Network", Name: "deliver"}:       {arg: 1, checked: true},
	{Pkg: netsimPkg, Recv: "Network", Name: "DeliverDirect"}: {arg: 2, checked: true},
	{Pkg: netsimPkg, Recv: "Node", Name: "Send"}:             {arg: 1, condErr: true},
	{Pkg: netsimPkg, Recv: "Node", Name: "SendVia"}:          {arg: 1, condErr: true},
	{Pkg: netsimPkg, Recv: "Handler", Name: "Receive"}:       {arg: 0},
	{Pkg: netsimPkg, Recv: "HandlerFunc", Name: "Receive"}:   {arg: 0},
	{Pkg: netsimPkg, Recv: "StaticRouter", Name: "Receive"}:  {arg: 0, checked: true},
	{Pkg: netsimPkg, Recv: "StaticRouter", Name: "Forward"}:  {arg: 0, checked: true},

	// qos: the switch buffer absorbs the packet only when it fits.
	{Pkg: qosPkg, Recv: "SwitchBuffer", Name: "Buffer"}: {arg: 0, condBool: true},

	// mobileip
	{Pkg: mobileipPkg, Recv: "HomeAgent", Name: "Receive"}:             {arg: 0, checked: true},
	{Pkg: mobileipPkg, Recv: "HomeAgent", Name: "handleControl"}:       {arg: 0, checked: true},
	{Pkg: mobileipPkg, Recv: "HomeAgent", Name: "intercept"}:           {arg: 0, checked: true},
	{Pkg: mobileipPkg, Recv: "ForeignAgent", Name: "Receive"}:          {arg: 0, checked: true},
	{Pkg: mobileipPkg, Recv: "ForeignAgent", Name: "relayReply"}:       {arg: 0, checked: true},
	{Pkg: mobileipPkg, Recv: "ForeignAgent", Name: "deliverTunnelled"}: {arg: 0, checked: true},
	{Pkg: mobileipPkg, Recv: "MobileNode", Name: "Receive"}:            {arg: 0, checked: true},
	{Pkg: mobileipPkg, Recv: "MobileNode", Name: "SendData"}:           {arg: 0, checked: true},

	// cellularip
	{Pkg: cellularipPkg, Recv: "BaseStation", Name: "Receive"}:       {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "BaseStation", Name: "receiveAir"}:    {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "BaseStation", Name: "receiveUp"}:     {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "BaseStation", Name: "handleControl"}: {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "BaseStation", Name: "forwardUp"}:     {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "BaseStation", Name: "deliverDown"}:   {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "BaseStation", Name: "sendMapping"}:   {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "BaseStation", Name: "pageFlood"}:     {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "MobileHost", Name: "Receive"}:        {arg: 0, checked: true},
	{Pkg: cellularipPkg, Recv: "MobileHost", Name: "SendData"}:       {arg: 0, checked: true},

	// multitier
	{Pkg: multitierPkg, Recv: "Station", Name: "Receive"}:         {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "receiveAir"}:      {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "receiveDown"}:     {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "receiveUp"}:       {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "receiveExternal"}: {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "consumeControl"}:  {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "redirect"}:        {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "forwardUp"}:       {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "sendUpData"}:      {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "deliverDown"}:     {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "deliverAir"}:      {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "bufferPacket"}:    {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "dropStale"}:       {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "dropFault"}:       {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "dropPreempted"}:   {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Station", Name: "pageFlood"}:       {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Mobile", Name: "Receive"}:          {arg: 0, checked: true},
	{Pkg: multitierPkg, Recv: "Mobile", Name: "SendData"}:         {arg: 0, checked: true},
}

// borrows are functions that read a packet argument without taking
// ownership: observers, the control-path helpers that wrap a packet's
// payload into a fresh packet, and every packet method that is not a
// producer. A call to a borrow leaves the caller's state untouched.
var borrows = map[analysis.FuncRef]bool{
	{Pkg: netsimPkg, Recv: "Observer", Name: "OnDrop"}: true,

	// multitier control handling: consumeControl owns the packet via its
	// deferred Release; everything it dispatches to only reads it.
	{Pkg: multitierPkg, Recv: "Station", Name: "handleControl"}:     true,
	{Pkg: multitierPkg, Recv: "Station", Name: "handleLocation"}:    true,
	{Pkg: multitierPkg, Recv: "Station", Name: "handleUpdate"}:      true,
	{Pkg: multitierPkg, Recv: "Station", Name: "handleDelete"}:      true,
	{Pkg: multitierPkg, Recv: "Station", Name: "propagateUp"}:       true,
	{Pkg: multitierPkg, Recv: "Station", Name: "sendControlTo"}:     true,
	{Pkg: multitierPkg, Recv: "Station", Name: "handleAnchorReply"}: true,
}

// isBorrow reports whether a call to ref leaves packet arguments with the
// caller. Any packet-package function or method that is neither a
// producer nor a sink (Size, Marshal, DecrementTTL, ...) only reads.
func isBorrow(ref analysis.FuncRef) bool {
	if borrows[ref] {
		return true
	}
	if ref.Pkg == packetPkg {
		_, producer := producers[ref]
		_, sink := sinks[ref]
		return !producer && !sink
	}
	return false
}
