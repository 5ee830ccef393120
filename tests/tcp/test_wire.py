"""A segment is the packet that carries it."""

from repro.net.addresses import IPv4Address
from repro.tcp.constants import TCP_HEADER_BYTES
from repro.tcp.wire import Segment

CLIENT = IPv4Address("10.0.0.1")
SERVER = IPv4Address("10.1.0.1")


def test_wire_size_is_header_plus_payload():
    data = Segment(SERVER, CLIENT, 80, 40000, 1, 1, payload_bytes=1460, is_ack=True)
    assert (data.src, data.dst) == (SERVER, CLIENT)
    assert data.size_bytes == TCP_HEADER_BYTES + 1460 == 1500
    for control in (
        Segment(CLIENT, SERVER, 40000, 80, 0, 0, syn=True),
        Segment(CLIENT, SERVER, 40000, 80, 1, 1, fin=True, is_ack=True),
        Segment(CLIENT, SERVER, 40000, 80, 1, 0, rst=True),
    ):
        assert control.size_bytes == TCP_HEADER_BYTES


def test_the_receiver_is_handed_the_segment_the_sender_built(testbed):
    sent, received = [], []
    send, receive = testbed.client.send_packet, testbed.server.receive_packet

    def tapped_send(packet):
        sent.append(packet)
        send(packet)

    def tapped_receive(packet):
        received.append(packet)
        receive(packet)

    testbed.client.send_packet = tapped_send
    testbed.server.receive_packet = tapped_receive
    sock = testbed.client.connect(testbed.server.address, 80)
    sock.send_message("request", 3000)
    testbed.sim.run(until=1.0)
    assert len(sent) == len(received) > 3
    assert all(got is built for got, built in zip(received, sent))
    assert all(isinstance(packet, Segment) for packet in sent)
    assert [packet.size_bytes - TCP_HEADER_BYTES for packet in sent] == [
        packet.payload_bytes for packet in sent
    ]
