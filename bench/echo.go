package main

import (
	"fmt"
	"net"
	"os"
)

// echoChild is the latency floor: a process that does nothing but return
// each datagram to its sender through the same net.UDPConn calls the router
// uses, with no DIP code on the path. What a wire workload's latency has
// above this round trip is the router's to remove; what is below it belongs
// to loopback and the Go runtime. It runs until the benchmark kills it.
func echoChild(addr string) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err == nil {
		var conn *net.UDPConn
		if conn, err = net.ListenUDP("udp", laddr); err == nil {
			buf := make([]byte, 65535)
			for {
				n, raddr, rerr := conn.ReadFromUDP(buf)
				if rerr != nil {
					continue
				}
				_, _ = conn.WriteToUDP(buf[:n], raddr) // a lost echo shows as a failed ping
			}
		}
	}
	fmt.Fprintln(os.Stderr, "echo-child:", err)
	os.Exit(1)
}
