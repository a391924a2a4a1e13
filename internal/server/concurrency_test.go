package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/dblp"
)

// TestConcurrentRequests fires extraction, scene rendering, analysis and
// label queries at one shared session from many goroutines while other
// sessions are created and deleted — the locking-discipline proof the
// acceptance criteria ask for. Run under -race.
func TestConcurrentRequests(t *testing.T) {
	s, ts := newTestServer(t)
	createSynthetic(t, s, "dblp")
	churnTree, _ := saveFixtureTree(t, 256)

	const workers = 4
	const rounds = 5
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds*4)

	check := func(resp *http.Response, err error, what string, wantStatus int) {
		if err != nil {
			errs <- fmt.Errorf("%s: %w", what, err)
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != wantStatus {
			errs <- fmt.Errorf("%s: status %d, want %d (%s)", what, resp.StatusCode, wantStatus, body)
		}
	}

	// Extraction: vary the source pair per worker so some requests solve
	// and some hit the cache concurrently.
	pairs := [][]string{
		{dblp.NamePhilipYu, dblp.NameFlipKorn},
		{dblp.NameJiaweiHan, dblp.NameKeWang},
		{dblp.NameJagadish, dblp.NameMiller},
		{dblp.NamePhilipYu, dblp.NameJiaweiHan},
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				body := fmt.Sprintf(`{"labels":[%q,%q],"budget":15}`, pairs[w%len(pairs)][0], pairs[w%len(pairs)][1])
				resp, err := http.Post(ts.URL+"/sessions/dblp/extract", "application/json", strings.NewReader(body))
				check(resp, err, "extract", http.StatusOK)
			}
		}(w)
	}

	// Scene rendering: walk different focuses, JSON and SVG.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				format := "json"
				if (w+i)%2 == 0 {
					format = "svg"
				}
				url := fmt.Sprintf("%s/sessions/dblp/scene?focus=%d&format=%s", ts.URL, (w+i)%4, format)
				resp, err := http.Get(url)
				check(resp, err, "scene", http.StatusOK)
			}
		}(w)
	}

	// Analysis + labels alongside.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			resp, err := http.Get(ts.URL + "/sessions/dblp/analysis")
			check(resp, err, "analysis", http.StatusOK)
			resp, err = http.Get(ts.URL + "/sessions/dblp/labels?prefix=J&limit=5")
			check(resp, err, "labels", http.StatusOK)
		}
	}()

	// Registry churn: open and tear down other sessions while the shared
	// one is being read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			name := fmt.Sprintf("churn%d", i)
			body := fmt.Sprintf(`{"name":%q,"source":"gtree","path":%s}`, name, jsonQuote(churnTree))
			resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(body))
			check(resp, err, "churn create", http.StatusCreated)
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/"+name, nil)
			resp, err = http.DefaultClient.Do(req)
			check(resp, err, "churn delete", http.StatusOK)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
