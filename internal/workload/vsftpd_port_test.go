package workload

import (
	"slices"
	"testing"

	"bastion/internal/apps/vsftpd"
	"bastion/internal/core"
	"bastion/internal/core/monitor"
	"bastion/internal/kernel"
	"bastion/internal/vm"
)

// TestVsftpdDataPortWraps starts the Vsftpd target's data port just below
// 65535: the next transfers must wrap to DataPortBase+1 instead of
// truncating a port above 65535, and every transfer must still complete.
func TestVsftpdDataPortWraps(t *testing.T) {
	target := NewVsftpd()
	k := kernel.New(nil)
	if err := target.Fixture(k); err != nil {
		t.Fatal(err)
	}
	art, err := core.Compile(target.Build(), core.CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := core.Launch(art, k, monitor.DefaultConfig(), vm.WithMaxSteps(1<<30))
	if err != nil {
		t.Fatal(err)
	}
	if err := target.Init(prot); err != nil {
		t.Fatal(err)
	}
	target.port = 65535 - 3
	var ports []uint64
	for i := 0; i < 10; i++ {
		if _, err := target.Unit(prot, i); err != nil {
			t.Fatalf("transfer %d on port %d: %v", i, target.port, err)
		}
		ports = append(ports, target.port)
	}
	want := []uint64{65533, 65534, 65535}
	for p := uint64(vsftpd.DataPortBase + 1); len(want) < 10; p++ {
		want = append(want, p)
	}
	if !slices.Equal(ports, want) {
		t.Fatalf("data ports = %v, want %v", ports, want)
	}
	if prot.Proc.Killed() {
		t.Fatal("monitor killed the guest across the port wrap")
	}
}
