// Protocolpath drives the x-kernel-style IPv4 receive layer end to end:
// it encodes datagrams (including a 10 KB one that fragments at the FDDI
// MTU), demultiplexes them through ip.Protocol to a transport stub, and
// verifies delivery, reassembly and header-checksum rejection.
package main

import (
	"bytes"
	"fmt"
	"log"

	"affinity/internal/xkernel"
	"affinity/internal/xkernel/ip"
)

// fddiMTU is the largest IP datagram one FDDI frame carries.
const fddiMTU = 4460

// transport stands in for UDP above IP: it records each payload.
type transport struct{ got [][]byte }

func (t *transport) Name() string { return "transport" }

func (t *transport) Demux(m *xkernel.Message) error {
	t.got = append(t.got, append([]byte(nil), m.Bytes()...))
	return nil
}

func main() {
	local, remote := ip.MustParse(10, 0, 0, 1), ip.MustParse(10, 0, 0, 2)
	host := ip.New(local)
	up := &transport{}
	host.RegisterUpper(ip.ProtoUDP, up)

	send := func(id uint16, payload []byte) int {
		h := ip.Header{ID: id, TTL: 64, Proto: ip.ProtoUDP, Src: remote, Dst: local}
		frags := ip.Fragment(h, payload, fddiMTU, 0)
		for _, m := range frags {
			if err := host.Demux(xkernel.FromBytes(m.Bytes())); err != nil {
				log.Fatalf("datagram %d: %v", id, err)
			}
		}
		if got := up.got[len(up.got)-1]; !bytes.Equal(got, payload) {
			log.Fatalf("datagram %d: payload mismatch", id)
		}
		return len(frags)
	}

	// 1. Small datagrams: the common case the paper's fast path models.
	for i := 0; i < 1000; i++ {
		send(uint16(i), []byte(fmt.Sprintf("packet %04d", i)))
	}

	// 2. The largest unfragmented payload the paper quotes (4432 bytes
	// plus an 8-byte UDP header), then a 10 KB datagram that fragments.
	if n := send(1000, make([]byte, 4440)); n != 1 {
		log.Fatalf("max FDDI payload split into %d fragments", n)
	}
	fmt.Printf("10 KB datagram fragments into %d FDDI frames\n", send(1001, bytes.Repeat([]byte{0xa5}, 10*1024)))

	// 3. A corrupted header must be caught by the IP checksum.
	m := xkernel.NewMessage(ip.HeaderLen, []byte("corrupt"))
	ip.Header{ID: 1002, TTL: 64, Proto: ip.ProtoUDP, Src: remote, Dst: local}.Encode(m)
	bad := m.Bytes()
	bad[8] ^= 0xff
	if err := host.Demux(xkernel.FromBytes(bad)); err == nil {
		log.Fatal("corrupt datagram was accepted")
	} else {
		fmt.Printf("corrupt datagram rejected: %v\n", err)
	}

	fmt.Printf("\ndelivered %d datagrams\nip: %+v\n", len(up.got), host.Stats())
	fmt.Println("\nIP receive path OK: demux, reassembly, checksum rejection all verified")
}
