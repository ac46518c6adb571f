package main

import (
	"bytes"
	"fmt"
	"net"
	"regexp"
	"strconv"
	"syscall"
	"time"
)

// scrape is one completed GET of the router's /metrics.
type scrape struct {
	ms    float64
	bytes int
}

// scraper fetches /metrics once a second while the generator saturates the
// router. The generator is one thread that never blocks, so the exchange is
// a non-blocking TCP connection advanced one step each time the generator's
// loop polls it: connect, send the request, read until the server closes.
type scraper struct {
	addr  syscall.SockaddrInet4
	next  int64 // generator time at which the next scrape starts
	fd    int   // -1 = no scrape under way
	sent  bool
	start int64
	buf   []byte // the response so far
	last  []byte // the previous complete response
	done  []scrape
	err   error // the first failure; scraping stops there
}

const (
	scrapeEvery = int64(time.Second)
	scrapeLimit = int64(5 * time.Second) // a scrape slower than this failed
	scrapeMax   = 1 << 20                // bytes; the export is a few tens of KiB
)

var scrapeRequest = []byte("GET /metrics HTTP/1.0\r\nHost: bench\r\n\r\n")

func newScraper(addr string) (*scraper, error) {
	a, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	s := &scraper{fd: -1, buf: make([]byte, 0, scrapeMax), last: make([]byte, 0, scrapeMax), done: make([]scrape, 0, 256)}
	s.addr.Port = a.Port
	copy(s.addr.Addr[:], a.IP.To4())
	return s, nil
}

// busy reports whether a scrape is under way; a nil scraper never is.
func (s *scraper) busy() bool { return s != nil && s.fd >= 0 }

func (s *scraper) fail(err error) {
	s.err = fmt.Errorf("scrape: %w", err)
	s.closeFD()
}

func (s *scraper) closeFD() {
	if s.fd >= 0 {
		syscall.Close(s.fd)
		s.fd = -1
	}
}

// poll advances the exchange by at most one system call.
func (s *scraper) poll(now int64) {
	switch {
	case s.err != nil:
	case s.fd < 0:
		if now < s.next {
			return
		}
		fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC, 0)
		if err != nil {
			s.fail(err)
			return
		}
		s.fd, s.sent, s.start, s.buf, s.next = fd, false, now, s.buf[:0], now+scrapeEvery
		if err := syscall.Connect(fd, &s.addr); err != nil && err != syscall.EINPROGRESS {
			s.fail(err)
		}
	case now-s.start > scrapeLimit:
		s.fail(fmt.Errorf("no complete answer within %v", time.Duration(scrapeLimit)))
	case !s.sent:
		// Until the connection stands the kernel refuses the write.
		if _, err := syscall.Write(s.fd, scrapeRequest); err == nil {
			s.sent = true
		} else if err != syscall.EAGAIN && err != syscall.ENOTCONN {
			s.fail(err)
		}
	default:
		n, err := syscall.Read(s.fd, s.buf[len(s.buf):cap(s.buf)])
		switch {
		case err == syscall.EAGAIN:
		case err != nil:
			s.fail(err)
		case n > 0:
			if s.buf = s.buf[:len(s.buf)+n]; len(s.buf) == cap(s.buf) {
				s.fail(fmt.Errorf("answer exceeds %d bytes", scrapeMax))
			}
		default: // the server closed: the answer is complete
			s.closeFD()
			head, body, ok := bytes.Cut(s.buf, []byte("\r\n\r\n"))
			if !ok || !(bytes.HasPrefix(head, []byte("HTTP/1.0 200 ")) || bytes.HasPrefix(head, []byte("HTTP/1.1 200 "))) {
				s.fail(fmt.Errorf("unexpected answer %q", head[:min(len(head), 64)]))
				return
			}
			s.done = append(s.done, scrape{ms: float64(now-s.start) / 1e6, bytes: len(body)})
			s.buf, s.last = s.last, s.buf
		}
	}
}

// finish lets a scrape that is under way complete, outside the timed phase,
// and returns what was collected.
func (s *scraper) finish(now func() int64) ([]scrape, error) {
	for s.busy() {
		s.poll(now())
	}
	if s.err == nil && len(s.done) == 0 {
		s.err = fmt.Errorf("scrape: none completed")
	}
	return s.done, s.err
}

// gauge sums every sample of one series in the last complete answer.
func (s *scraper) gauge(name string) float64 {
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + `(?:\{[^}]*\})? ([0-9.eE+-]+)$`)
	var sum float64
	for _, m := range re.FindAllSubmatch(s.last, -1) {
		v, _ := strconv.ParseFloat(string(m[1]), 64)
		sum += v
	}
	return sum
}
