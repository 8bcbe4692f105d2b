// Package dmap reproduces the DMap content-classification pipeline of
// §5.1.1: fetch each domain's web page, classify it as placeholder,
// e-commerce or parking, and join the classes with the domains' DNS TTLs
// (Tables 6 and 7). The web is synthetic here — each generated .nl domain
// renders a page in the style its ground-truth class implies — but the
// classifier works from page content alone, exactly as DMap does.
package dmap

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dnsttl/internal/dnswire"
	"dnsttl/internal/zonegen"
)

// Page is one fetched web page.
type Page struct {
	Domain dnswire.Name
	Status int
	Body   string
}

// Template fragments per class. The classifier must not simply invert the
// generator, so each class has several phrasings and pages carry filler.
var (
	ecommerceSnippets = []string{
		`<a href="/cart">View shopping cart</a><span class="cart-count">0</span>`,
		`<button class="add-to-cart">Add to cart</button><div id="checkout">Checkout</div>`,
		`<div class="winkelwagen">Winkelwagen (0)</div><a href="/afrekenen">Afrekenen</a>`,
	}
	parkingSnippets = []string{
		`This domain has been registered and is parked by its owner.`,
		`<h1>domain parked</h1> Interested? This domain may be for sale. Contact the broker.`,
		`Deze domeinnaam is geregistreerd en geparkeerd. Koop deze domeinnaam!`,
	}
	placeholderSnippets = []string{
		`<h1>Welcome to nginx!</h1>If you see this page, the web server is successfully installed.`,
		`<title>Default web page</title>This is the default hosting page of your provider.`,
		`<h1>Site under construction</h1>Standaard pagina van uw hostingprovider.`,
	}
	genericSnippets = []string{
		`<h1>Our company</h1><p>We have been serving customers since 1987.</p>`,
		`<h1>Blog</h1><p>Thoughts on cheese, bicycles and the sea.</p>`,
		`<h1>Vereniging</h1><p>Welkom op de site van onze vereniging.</p>`,
	}
)

// RenderPage synthesizes the page a domain would serve, from its
// ground-truth class. A small fraction of pages carry no recognizable
// signal, as in real crawls.
func RenderPage(d *zonegen.Domain, r *rand.Rand) *Page {
	var body strings.Builder
	fmt.Fprintf(&body, "<html><head><title>%s</title></head><body>", d.Name)
	body.WriteString(genericSnippets[r.Intn(len(genericSnippets))])
	noise := r.Float64() < 0.03 // unclassifiable tail
	if !noise {
		switch d.Content {
		case zonegen.Ecommerce:
			body.WriteString(ecommerceSnippets[r.Intn(len(ecommerceSnippets))])
		case zonegen.Parking:
			body.WriteString(parkingSnippets[r.Intn(len(parkingSnippets))])
		case zonegen.Placeholder:
			body.WriteString(placeholderSnippets[r.Intn(len(placeholderSnippets))])
		}
	}
	body.WriteString("</body></html>")
	return &Page{Domain: d.Name, Status: 200, Body: body.String()}
}

// classRules map content signals to classes; first match wins, e-commerce
// before parking before placeholder (cart markup on a parked page means a
// live shop template).
var classRules = []struct {
	class    zonegen.ContentClass
	keywords []string
}{
	{zonegen.Ecommerce, []string{"add-to-cart", "shopping cart", "winkelwagen", "checkout", "afrekenen", "cart-count"}},
	{zonegen.Parking, []string{"parked", "geparkeerd", "for sale", "koop deze domeinnaam", "domain broker"}},
	{zonegen.Placeholder, []string{"welcome to nginx", "default web page", "default hosting page", "under construction", "standaard pagina"}},
}

// Classify assigns a content class from page content alone.
func Classify(p *Page) zonegen.ContentClass {
	if p == nil || p.Status != 200 {
		return zonegen.Unclassified
	}
	body := strings.ToLower(p.Body)
	for _, rule := range classRules {
		for _, kw := range rule.keywords {
			if strings.Contains(body, kw) {
				return rule.class
			}
		}
	}
	return zonegen.Unclassified
}

// Survey is the Tables 6/7 product: class counts and per-class median TTLs
// (in hours) per record type.
type Survey struct {
	// Counts per classified class (Table 6).
	Counts map[zonegen.ContentClass]int
	// Total is the number of classified domains.
	Total int
	// MedianTTLHours[class][type] reproduces Table 7.
	MedianTTLHours map[zonegen.ContentClass]map[dnswire.Type]float64
}

// table7Types are the record types Table 7 reports.
var table7Types = []dnswire.Type{
	dnswire.TypeNS, dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeMX, dnswire.TypeDNSKEY,
}

// Run renders and classifies every responsive .nl domain with a web
// presence and joins classes with the domains' child-zone TTLs.
func Run(w *zonegen.World, seed int64) *Survey {
	r := rand.New(rand.NewSource(seed))
	s := &Survey{
		Counts:         make(map[zonegen.ContentClass]int),
		MedianTTLHours: make(map[zonegen.ContentClass]map[dnswire.Type]float64),
	}
	ttls := make(map[zonegen.ContentClass]map[dnswire.Type][]float64)
	for _, d := range w.Lists[zonegen.NL] {
		if !d.Responsive || d.Zone == nil || d.NSBehavior != zonegen.NSAnswer {
			continue
		}
		class := Classify(RenderPage(d, r))
		if class == zonegen.Unclassified {
			continue
		}
		s.Counts[class]++
		s.Total++
		if ttls[class] == nil {
			ttls[class] = make(map[dnswire.Type][]float64)
		}
		for _, t := range table7Types {
			if set := d.Zone.Get(d.Name, t); set != nil {
				ttls[class][t] = append(ttls[class][t], float64(set.TTL())/3600)
			}
		}
	}
	for class, byType := range ttls {
		s.MedianTTLHours[class] = make(map[dnswire.Type]float64)
		for t, xs := range byType {
			sort.Float64s(xs)
			s.MedianTTLHours[class][t] = xs[(len(xs)-1)/2]
		}
	}
	return s
}
